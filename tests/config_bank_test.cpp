// The configuration bank: member grouping, both engines against
// independent simulation, the analytic domain, and the counters
// record() emits. The MultiCacheSim and StackDistSim suites keep the
// names of the two banks ConfigBank merged: they cover its MultiSim and
// StackDist engines respectively.
#include <gtest/gtest.h>

#include <random>
#include <string_view>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/trace/trace_source.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

/// Mixed random reads/writes/ifetches over a span that overflows the
/// small bank geometries, with occasional line-straddling sizes.
Trace mixedRandomTrace(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> addr(0, 4096);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<MemRef> refs;
  refs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t a = addr(rng);
    const int k = kind(rng);
    if (k < 4) {
      refs.push_back(readRef(a));
    } else if (k < 7) {
      refs.push_back(writeRef(a));
    } else if (k < 9) {
      refs.push_back(instrRef(a));
    } else {
      refs.push_back(MemRef{a, 8, AccessType::Read});  // may straddle lines
    }
  }
  return Trace(std::move(refs));
}

/// A bank mixing geometries: several distinct line sizes so the shared
/// line-decomposition groups are actually exercised, plus repeated line
/// sizes within a group.
std::vector<CacheConfig> bankConfigs(ReplacementPolicy replacement,
                                     WritePolicy write,
                                     AllocatePolicy allocate) {
  std::vector<CacheConfig> configs;
  const std::uint32_t geometries[][3] = {
      {64, 8, 1}, {64, 8, 2}, {128, 8, 4}, {64, 16, 2},
      {128, 16, 1}, {256, 32, 2}, {64, 4, 1},
  };
  for (const auto& g : geometries) {
    CacheConfig c;
    c.sizeBytes = g[0];
    c.lineBytes = g[1];
    c.associativity = g[2];
    c.replacement = replacement;
    c.writePolicy = write;
    c.allocatePolicy = allocate;
    configs.push_back(c);
  }
  return configs;
}

void expectStatsEqual(const CacheStats& a, const CacheStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.readHits, b.readHits) << what;
  EXPECT_EQ(a.readMisses, b.readMisses) << what;
  EXPECT_EQ(a.writeHits, b.writeHits) << what;
  EXPECT_EQ(a.writeMisses, b.writeMisses) << what;
  EXPECT_EQ(a.lineFills, b.lineFills) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.memWrites, b.memWrites) << what;
}

/// The value record() gives counter `name` on a fresh recorder.
std::uint64_t recorded(const ConfigBank& bank, std::string_view name) {
  obs::Recorder recorder;
  bank.record(&recorder);
  return recorder.counterValue(name);
}

// --- MultiSim engine -------------------------------------------------

TEST(MultiCacheSim, MatchesIndependentSimsEveryPolicyCombination) {
  const Trace trace = mixedRandomTrace(3000, 42);
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
        ReplacementPolicy::Random, ReplacementPolicy::TreePLRU}) {
    for (const WritePolicy write :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      for (const AllocatePolicy allocate :
           {AllocatePolicy::WriteAllocate, AllocatePolicy::NoWriteAllocate}) {
        const std::vector<CacheConfig> configs =
            bankConfigs(replacement, write, allocate);
        ConfigBank bank(SweepBackend::MultiSim, configs);
        bank.run(trace);
        ASSERT_EQ(bank.size(), configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i) {
          const CacheStats solo = simulateTrace(configs[i], trace);
          expectStatsEqual(bank.stats(i), solo,
                           configs[i].label() + " " + toString(replacement) +
                               "/" + toString(write) + "/" +
                               toString(allocate));
        }
      }
    }
  }
}

TEST(MultiCacheSim, MatchesIndependentSimsOnSeveralSeeds) {
  const std::vector<CacheConfig> configs = bankConfigs(
      ReplacementPolicy::LRU, WritePolicy::WriteBack,
      AllocatePolicy::WriteAllocate);
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    const Trace trace = mixedRandomTrace(1500, seed);
    ConfigBank bank(SweepBackend::MultiSim, configs);
    bank.run(trace);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expectStatsEqual(bank.stats(i), simulateTrace(configs[i], trace),
                       configs[i].label() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MultiCacheSim, RejectsEmptyBankAndInvalidConfig) {
  EXPECT_THROW(ConfigBank(SweepBackend::MultiSim, {}), ContractViolation);
  CacheConfig bad;
  bad.sizeBytes = 48;  // not a power of two
  EXPECT_THROW(ConfigBank(SweepBackend::MultiSim, {bad}), ContractViolation);
}

TEST(MultiCacheSim, StatsFollowInputOrder) {
  std::vector<CacheConfig> configs;
  CacheConfig small;
  small.sizeBytes = 16;
  small.lineBytes = 4;
  CacheConfig large;
  large.sizeBytes = 1024;
  large.lineBytes = 4;
  configs.push_back(large);
  configs.push_back(small);
  const Trace trace = mixedRandomTrace(2000, 5);
  ConfigBank bank(SweepBackend::MultiSim, configs);
  bank.run(trace);
  // The large cache can only miss less; order must match the inputs.
  EXPECT_LE(bank.stats(0).misses(), bank.stats(1).misses());
  EXPECT_EQ(bank.stats(0).accesses(), bank.stats(1).accesses());
}

// --- StackDist engine ------------------------------------------------

TEST(StackDistSim, MatchesMultiCacheSimAcrossRandomLruBanks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    // Mixed line sizes in one bank exercise the per-line-size grouping.
    const std::vector<CacheConfig> bank = {
        randomLruCacheConfig(seed),
        randomLruCacheConfig(seed + 1000),
        randomLruCacheConfig(seed + 2000),
    };
    const Trace trace = randomCheckTrace(seed, 200, 800);

    ConfigBank analytic(SweepBackend::StackDist, bank);
    analytic.run(trace);
    ConfigBank simulated(SweepBackend::MultiSim, bank);
    simulated.run(trace);

    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats& want = simulated.stats(i);
      const CacheStats& got = analytic.stats(i);
      ASSERT_EQ(got.readMisses, want.readMisses)
          << "seed " << seed << " " << bank[i].label();
      ASSERT_EQ(got.writeMisses, want.writeMisses)
          << "seed " << seed << " " << bank[i].label();
      ASSERT_EQ(got.readHits, want.readHits);
      ASSERT_EQ(got.writeHits, want.writeHits);
      ASSERT_EQ(got.lineFills, want.lineFills);
      ASSERT_EQ(got.memWrites, want.memWrites);
      ASSERT_EQ(got.writebacks, want.writebacks)
          << "seed " << seed << " " << bank[i].label();
    }
  }
}

TEST(StackDistSim, GroupsSharingALineSizeUseOnePass) {
  CacheConfig a = randomLruCacheConfig(2);  // write-back variant
  CacheConfig b = a;
  b.associativity = 1;
  CacheConfig c = a;
  c.sizeBytes *= 2;
  CacheConfig d = a;
  d.lineBytes *= 2;
  d.sizeBytes *= 2;
  const ConfigBank bank(SweepBackend::StackDist, {a, b, c, d});
  EXPECT_EQ(bank.size(), 4u);
  // Two distinct line sizes.
  EXPECT_EQ(recorded(bank, "stackdist.passes"), 2u);
}

TEST(StackDistSim, RejectsConfigsOutsideItsDomain) {
  // FIFO and tree-PLRU sweeps are served by the PolicyGridProfile
  // engine; only Random replacement (simulator-owned rng stream) and
  // no-write-allocate caches still require simulation.
  CacheConfig fifo = randomLruCacheConfig(1);
  fifo.replacement = ReplacementPolicy::FIFO;
  EXPECT_TRUE(ConfigBank::stackDistSupports(fifo));

  CacheConfig plru = randomLruCacheConfig(1);
  plru.replacement = ReplacementPolicy::TreePLRU;
  EXPECT_TRUE(ConfigBank::stackDistSupports(plru));

  CacheConfig rnd = randomLruCacheConfig(1);
  rnd.replacement = ReplacementPolicy::Random;
  EXPECT_FALSE(ConfigBank::stackDistSupports(rnd));
  EXPECT_THROW(ConfigBank(SweepBackend::StackDist, {rnd}), ContractViolation);

  CacheConfig noAlloc = randomLruCacheConfig(1);
  noAlloc.allocatePolicy = AllocatePolicy::NoWriteAllocate;
  EXPECT_FALSE(ConfigBank::stackDistSupports(noAlloc));
  EXPECT_THROW(ConfigBank(SweepBackend::StackDist, {noAlloc}),
               ContractViolation);

  EXPECT_TRUE(ConfigBank::stackDistSupports(randomLruCacheConfig(1)));
  EXPECT_THROW(ConfigBank(SweepBackend::StackDist, {}), ContractViolation);
}

TEST(StackDistSim, FifoAndPlruGroupsUseTheGridEngine) {
  CacheConfig lru = randomLruCacheConfig(2);
  CacheConfig fifo = lru;
  fifo.replacement = ReplacementPolicy::FIFO;
  CacheConfig plru = lru;
  plru.replacement = ReplacementPolicy::TreePLRU;
  plru.sizeBytes *= 2;
  const ConfigBank bank(SweepBackend::StackDist, {lru, fifo, plru});
  EXPECT_EQ(bank.size(), 3u);
  // Same line size but three distinct replacement policies: one LRU
  // pass plus two analytic grid passes.
  EXPECT_EQ(recorded(bank, "stackdist.passes"), 3u);
  EXPECT_EQ(recorded(bank, "stackdist.grid_passes"), 2u);
  EXPECT_GT(recorded(bank, "stackdist.grid_cells"), 0u);
}

TEST(StackDistSim, MatchesMultiCacheSimAcrossRandomGridBanks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CacheConfig fifo = randomLruCacheConfig(seed);
    fifo.replacement = ReplacementPolicy::FIFO;
    CacheConfig plru = randomLruCacheConfig(seed + 1000);
    plru.replacement = ReplacementPolicy::TreePLRU;
    const std::vector<CacheConfig> bank = {fifo, plru,
                                           randomLruCacheConfig(seed + 2000)};
    const Trace trace = randomCheckTrace(seed, 200, 800);

    ConfigBank analytic(SweepBackend::StackDist, bank);
    analytic.run(trace);
    ConfigBank simulated(SweepBackend::MultiSim, bank);
    simulated.run(trace);

    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats& want = simulated.stats(i);
      const CacheStats& got = analytic.stats(i);
      ASSERT_EQ(got.readMisses, want.readMisses)
          << "seed " << seed << " " << bank[i].label();
      ASSERT_EQ(got.writeMisses, want.writeMisses)
          << "seed " << seed << " " << bank[i].label();
      ASSERT_EQ(got.readHits, want.readHits);
      ASSERT_EQ(got.writeHits, want.writeHits);
      ASSERT_EQ(got.lineFills, want.lineFills);
      ASSERT_EQ(got.memWrites, want.memWrites);
      ASSERT_EQ(got.writebacks, want.writebacks)
          << "seed " << seed << " " << bank[i].label();
    }
  }
}

TEST(StackDistSim, RepeatedRunsContinueOneStream) {
  // Like a MultiSim bank, the StackDist bank is incremental: nothing fed
  // reads as zero, and running the same trace twice equals one run of
  // the trace followed by itself.
  const CacheConfig config = randomLruCacheConfig(3);
  ConfigBank bank(SweepBackend::StackDist, {config});
  EXPECT_EQ(bank.stats(0).accesses(), 0u);
  const Trace trace = randomCheckTrace(3, 50, 100);
  bank.run(trace);
  bank.run(trace);
  Trace twice = trace;
  twice.append(trace);
  const CacheStats want = simulateTrace(config, twice);
  const CacheStats& got = bank.stats(0);
  EXPECT_EQ(got.readMisses, want.readMisses);
  EXPECT_EQ(got.writeMisses, want.writeMisses);
  EXPECT_EQ(got.readHits, want.readHits);
  EXPECT_EQ(got.writeHits, want.writeHits);
  EXPECT_EQ(got.writebacks, want.writebacks);
}

// --- Reference spans ---------------------------------------------------

TEST(ConfigBank, EveryEngineRejectsAReferenceThatWrapsPastTheTop) {
  // addr + size - 1 overflows: a wrapped span probes no line, which
  // used to count the access as a free hit in every engine.
  const MemRef wrapping{0xfffffffffffffffeull, 4, AccessType::Read};
  Trace trace;
  trace.push(readRef(0x40));
  trace.push(wrapping);

  CacheConfig lru;
  lru.sizeBytes = 64;
  lru.lineBytes = 8;
  lru.associativity = 2;
  CacheSim sim(lru);
  EXPECT_THROW((void)sim.access(wrapping), ContractViolation);
  EXPECT_THROW((void)simulateTrace(lru, trace), ContractViolation);

  CacheConfig fifo = lru;
  fifo.replacement = ReplacementPolicy::FIFO;
  CacheConfig plru = lru;
  plru.replacement = ReplacementPolicy::TreePLRU;
  CacheConfig rnd = lru;
  rnd.replacement = ReplacementPolicy::Random;
  ConfigBank multi(SweepBackend::MultiSim, {lru, rnd});
  EXPECT_THROW(multi.run(trace), ContractViolation);
  for (const CacheConfig& c : {lru, fifo, plru}) {
    ConfigBank bank(SweepBackend::StackDist, {c});
    EXPECT_THROW(bank.run(trace), ContractViolation)
        << toString(c.replacement);
  }

  // Both profiles, and the all-associativity profile in both slot
  // encodings (maxAssoc 512 starts split).
  EXPECT_THROW(AllAssocProfile(trace, 8, 8, 4), ContractViolation);
  EXPECT_THROW(AllAssocProfile(trace, 8, 1, 512), ContractViolation);
  EXPECT_THROW(PolicyGridProfile(trace, ReplacementPolicy::FIFO, 8, 8, 4),
               ContractViolation);
}

TEST(ConfigBank, SpansEndingOnTheTopLineTerminateAndCount) {
  // The last byte of memory sits on line 2^64 - 1 of a 1-byte-line
  // cache; a line loop testing `line <= last` never ends there.
  CacheConfig tiny;
  tiny.sizeBytes = 8;
  tiny.lineBytes = 1;
  Trace top;
  top.push(readRef(0xffffffffffffffffull, 1));
  top.push(readRef(0xffffffffffffffffull, 1));
  top.push(writeRef(0xfffffffffffffffeull, 2));  // lines 2^64-2 and -1
  const CacheStats got = simulateTrace(tiny, top);
  EXPECT_EQ(got.accesses(), 3u);
  EXPECT_EQ(got.misses(), 2u);  // cold, hit, cold straddle
  EXPECT_EQ(got.lineFills, 2u);
  ConfigBank multi(SweepBackend::MultiSim, {tiny});
  multi.run(top);
  expectStatsEqual(multi.stats(0), got, "MultiSim");

  // A span ending on the top byte at a wider line size is an ordinary
  // reference: the profile and the simulator agree on it.
  CacheConfig wide;
  wide.sizeBytes = 64;
  wide.lineBytes = 8;
  Trace high;
  high.push(readRef(0xfffffffffffffffcull, 4));
  high.push(writeRef(0xfffffffffffffffaull, 4));  // straddles two lines
  high.push(readRef(0xfffffffffffffffcull, 4));
  ConfigBank analytic(SweepBackend::StackDist, {wide});
  analytic.run(high);
  expectStatsEqual(analytic.stats(0), simulateTrace(wide, high),
                   "StackDist at the top line");
}

// --- Counters --------------------------------------------------------

TEST(ConfigBank, RecordEmitsThePinnedEngineCounters) {
  // The ledger's per-layer metrics read these counters. A StackDist bank
  // of LRU, FIFO and tree-PLRU members at two line sizes (three
  // geometries each) and a Random MultiSim bank, half its stream fed in
  // memory and half streamed, pin every one of them.
  const Trace trace = mixedRandomTrace(2000, 11);
  std::vector<CacheConfig> analytic;
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
        ReplacementPolicy::TreePLRU}) {
    for (const std::uint32_t line : {8u, 16u}) {
      for (const auto& [size, assoc] :
           {std::pair{64u, 1u}, std::pair{128u, 2u}, std::pair{256u, 4u}}) {
        CacheConfig c;
        c.sizeBytes = size;
        c.lineBytes = line;
        c.associativity = assoc;
        c.replacement = policy;
        analytic.push_back(c);
      }
    }
  }
  ConfigBank stack(SweepBackend::StackDist, analytic);
  stack.run(trace);

  Trace head;
  Trace tail;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    (i < trace.size() / 2 ? head : tail).push(trace[i]);
  }
  ConfigBank random(SweepBackend::MultiSim,
                    bankConfigs(ReplacementPolicy::Random,
                                WritePolicy::WriteBack,
                                AllocatePolicy::WriteAllocate));
  random.run(head);
  VectorTraceSource source(tail);
  random.run(source, 64);

  obs::Recorder recorder;
  stack.record(&recorder);
  random.record(&recorder);
  EXPECT_EQ(recorder.counterValue("sweep.groups"), 2u);
  EXPECT_EQ(recorder.counterValue("sweep.points"), 25u);
  EXPECT_EQ(recorder.counterValue("sweep.groups_multisim"), 1u);
  EXPECT_EQ(recorder.counterValue("sweep.groups_stackdist"), 1u);
  EXPECT_EQ(recorder.counterValue("sim.accesses"), 14000u);
  EXPECT_EQ(recorder.counterValue("stackdist.passes"), 6u);
  EXPECT_EQ(recorder.counterValue("stackdist.grid_passes"), 4u);
  EXPECT_EQ(recorder.counterValue("stackdist.grid_cells"), 12u);
  EXPECT_EQ(recorder.counterValue("stackdist.accesses"), 12000u);
  EXPECT_EQ(recorder.counterValue("stackdist.dirty_evictions"), 13555u);
}

}  // namespace
}  // namespace memx
