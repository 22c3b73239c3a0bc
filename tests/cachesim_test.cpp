#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/check/ref_cache_sim.hpp"
#include "memx/trace/generators.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

CacheConfig dm(std::uint32_t size, std::uint32_t line) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = 1;
  return c;
}

CacheConfig sa(std::uint32_t size, std::uint32_t line, std::uint32_t ways) {
  CacheConfig c = dm(size, line);
  c.associativity = ways;
  return c;
}

TEST(CacheConfig, DerivedGeometry) {
  const CacheConfig c = sa(64, 8, 2);
  EXPECT_EQ(c.numLines(), 8u);
  EXPECT_EQ(c.numSets(), 4u);
  EXPECT_FALSE(c.isFullyAssociative());
}

TEST(CacheConfig, FullyAssociativeDetected) {
  const CacheConfig c = sa(64, 8, 8);
  EXPECT_TRUE(c.isFullyAssociative());
  EXPECT_EQ(c.numSets(), 1u);
}

TEST(CacheConfig, ValidateRejectsNonPow2) {
  CacheConfig c = dm(96, 8);
  EXPECT_THROW(c.validate(), ContractViolation);
  c = dm(64, 12);
  EXPECT_THROW(c.validate(), ContractViolation);
  c = sa(64, 8, 3);
  EXPECT_THROW(c.validate(), ContractViolation);
}

TEST(CacheConfig, ValidateRejectsLineLargerThanCache) {
  EXPECT_THROW(dm(8, 16).validate(), ContractViolation);
}

TEST(CacheConfig, ValidateRejectsTooManyWays) {
  EXPECT_THROW(sa(64, 8, 16).validate(), ContractViolation);
}

TEST(CacheConfig, Label) {
  EXPECT_EQ(dm(64, 8).label(), "C64L8");
  EXPECT_EQ(sa(64, 8, 4).label(), "C64L8S4");
}

TEST(CacheConfig, ParseLabelRoundTrips) {
  for (const CacheConfig& c :
       {dm(64, 8), sa(64, 8, 4), dm(1024, 64), sa(16, 4, 2)}) {
    const CacheConfig parsed = parseCacheLabel(c.label());
    EXPECT_EQ(parsed.sizeBytes, c.sizeBytes);
    EXPECT_EQ(parsed.lineBytes, c.lineBytes);
    EXPECT_EQ(parsed.associativity, c.associativity);
  }
}

TEST(CacheConfig, ParseLabelCaseInsensitive) {
  const CacheConfig c = parseCacheLabel("c128l16s2");
  EXPECT_EQ(c.sizeBytes, 128u);
  EXPECT_EQ(c.lineBytes, 16u);
  EXPECT_EQ(c.associativity, 2u);
}

TEST(CacheConfig, ParseLabelRejectsGarbage) {
  EXPECT_THROW((void)parseCacheLabel(""), ContractViolation);
  EXPECT_THROW((void)parseCacheLabel("64L8"), ContractViolation);
  EXPECT_THROW((void)parseCacheLabel("C64"), ContractViolation);
  EXPECT_THROW((void)parseCacheLabel("C64L8X2"), ContractViolation);
  EXPECT_THROW((void)parseCacheLabel("C64L8S2junk"), ContractViolation);
  EXPECT_THROW((void)parseCacheLabel("C63L8"), ContractViolation);  // not pow2
}

TEST(CacheSim, ColdMissThenHit) {
  CacheSim sim(dm(64, 8));
  EXPECT_FALSE(sim.access(readRef(0)).hit);
  EXPECT_TRUE(sim.access(readRef(0)).hit);
  EXPECT_TRUE(sim.access(readRef(4)).hit);  // same line
  EXPECT_EQ(sim.stats().readMisses, 1u);
  EXPECT_EQ(sim.stats().readHits, 2u);
}

TEST(CacheSim, SpatialLocalityWithinLine) {
  CacheSim sim(dm(64, 16));
  sim.run(stridedTrace(0, 16, 4));  // 64 bytes = 4 lines of 16
  EXPECT_EQ(sim.stats().misses(), 4u);
  EXPECT_EQ(sim.stats().hits(), 12u);
}

TEST(CacheSim, DirectMappedConflict) {
  // Two addresses 64 apart alias in a 64-byte direct-mapped cache.
  CacheSim sim(dm(64, 8));
  sim.run(pingPongTrace(0, 64, 10, 0));
  EXPECT_EQ(sim.stats().misses(), 20u);  // every access evicts the other
}

TEST(CacheSim, TwoWayResolvesPingPong) {
  CacheSim sim(sa(64, 8, 2));
  sim.run(pingPongTrace(0, 64, 10, 0));
  // Both lines fit one set: only the two cold misses remain.
  EXPECT_EQ(sim.stats().misses(), 2u);
  EXPECT_EQ(sim.stats().hits(), 18u);
}

TEST(CacheSim, LruEvictsLeastRecentlyUsed) {
  // Fully-associative 2-way cache of 2 lines; touch A, B, A, C -> B evicted.
  CacheSim sim(sa(16, 8, 2));
  sim.access(readRef(0));    // A
  sim.access(readRef(64));   // B
  sim.access(readRef(0));    // A (refresh)
  sim.access(readRef(128));  // C evicts B
  EXPECT_TRUE(sim.contains(0));
  EXPECT_FALSE(sim.contains(64));
  EXPECT_TRUE(sim.contains(128));
}

TEST(CacheSim, FifoEvictsOldestFill) {
  CacheConfig c = sa(16, 8, 2);
  c.replacement = ReplacementPolicy::FIFO;
  CacheSim sim(c);
  sim.access(readRef(0));    // A filled first
  sim.access(readRef(64));   // B
  sim.access(readRef(0));    // A touched again (FIFO ignores this)
  sim.access(readRef(128));  // C evicts A, not B
  EXPECT_FALSE(sim.contains(0));
  EXPECT_TRUE(sim.contains(64));
  EXPECT_TRUE(sim.contains(128));
}

TEST(CacheSim, WriteBackMarksDirtyAndWritesBackOnEviction) {
  CacheSim sim(dm(16, 8));
  sim.access(writeRef(0));   // miss, fill, dirty
  EXPECT_EQ(sim.stats().writebacks, 0u);
  sim.access(readRef(64));   // evicts dirty line 0 -> writeback
  EXPECT_EQ(sim.stats().writebacks, 1u);
  EXPECT_EQ(sim.stats().memWrites, 0u);
}

TEST(CacheSim, WriteThroughWritesEveryStore) {
  CacheConfig c = dm(64, 8);
  c.writePolicy = WritePolicy::WriteThrough;
  CacheSim sim(c);
  sim.access(writeRef(0));  // miss + allocate + through-write
  sim.access(writeRef(0));  // hit + through-write
  EXPECT_EQ(sim.stats().memWrites, 2u);
  EXPECT_EQ(sim.stats().writebacks, 0u);
}

TEST(CacheSim, AccessStraddlingLinesMissesBothSides) {
  CacheSim sim(dm(64, 8));
  const AccessOutcome out = sim.access(readRef(6, 4));  // lines 0 and 1
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.fills, 2u);
  EXPECT_TRUE(sim.contains(0));
  EXPECT_TRUE(sim.contains(8));
}

TEST(CacheSim, ResetClearsContentsAndStats) {
  CacheSim sim(dm(64, 8));
  sim.access(readRef(0));
  sim.reset();
  EXPECT_EQ(sim.stats().accesses(), 0u);
  EXPECT_EQ(sim.validLineCount(), 0u);
  EXPECT_FALSE(sim.contains(0));
}

TEST(CacheSim, SetIndexAndTag) {
  CacheSim sim(dm(64, 8));  // 8 sets
  EXPECT_EQ(sim.setIndexOf(0), 0u);
  EXPECT_EQ(sim.setIndexOf(8), 1u);
  EXPECT_EQ(sim.setIndexOf(64), 0u);
  EXPECT_EQ(sim.tagOf(0), 0u);
  EXPECT_EQ(sim.tagOf(64), 1u);
}

TEST(CacheSim, MissRateOfRandomWorkloadBounded) {
  CacheSim sim(dm(256, 16));
  sim.run(randomTrace(0, 4096, 5000, 99));
  const double mr = sim.stats().missRate();
  // Resident fraction is 256/4096 = 1/16; miss rate near 15/16.
  EXPECT_GT(mr, 0.8);
  EXPECT_LT(mr, 1.0);
}

TEST(CacheSim, LoopingWorkingSetFitsAfterFirstRound) {
  CacheSim sim(dm(256, 16));
  sim.run(loopingTrace(0, 64, 4, 4));  // 256-byte working set, 4 rounds
  // 16 cold misses, everything else hits.
  EXPECT_EQ(sim.stats().misses(), 16u);
  EXPECT_EQ(sim.stats().hits(), 4u * 64u - 16u);
}

TEST(CacheSim, LoopingWorkingSetTooBigThrashesDM) {
  CacheSim sim(dm(64, 16));
  sim.run(loopingTrace(0, 64, 4, 4));  // 256-byte set in 64-byte cache
  // Every 4th access fetches a new line and the cache never retains the
  // loop, so each round re-misses all 16 lines.
  EXPECT_EQ(sim.stats().lineFills, 64u);
}

TEST(CacheSim, RejectsZeroSizeAccess) {
  CacheSim sim(dm(64, 8));
  MemRef bad = readRef(0);
  bad.size = 0;
  EXPECT_THROW(sim.access(bad), ContractViolation);
}

TEST(CacheSim, SimulateTraceConvenience) {
  const CacheStats s = simulateTrace(dm(64, 8), stridedTrace(0, 16, 8));
  EXPECT_EQ(s.accesses(), 16u);
  EXPECT_EQ(s.misses(), 16u);  // stride = line size: all cold
}

// Line storage. The line array starts zeroed (a lazily committed
// mapping for large arrays); copies, moves and reset() must keep plain
// value semantics on it.

/// Reads, writes and line-straddling reads spread over `spanBytes`.
Trace mixedTrace(std::uint64_t spanBytes, std::size_t count,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<MemRef> refs;
  refs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t addr = (rng() % spanBytes) & ~std::uint64_t{3};
    switch (rng() % 4) {
      case 0:
        refs.push_back(writeRef(addr));
        break;
      case 1:
        refs.push_back(MemRef{addr + 2, 8, AccessType::Read});
        break;
      default:
        refs.push_back(readRef(addr));
    }
  }
  return Trace(std::move(refs));
}

void expectSameStats(const CacheStats& a, const CacheStats& b,
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

/// A 2 MiB L2 with 8-byte lines: a 6 MiB line array, far past the
/// size at which line arrays become mappings.
CacheConfig bigL2(ReplacementPolicy replacement) {
  CacheConfig c = sa(2u << 20, 8, 4);
  c.replacement = replacement;
  return c;
}

/// Reads and writes to 64 tags in each of 64 sets of bigL2() (whose
/// sets repeat every 512 KiB): heavy conflict traffic, so lines, dirty
/// ones included, keep getting evicted.
Trace bigL2ConflictTrace(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<MemRef> refs;
  refs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t addr = ((rng() % 64) << 19) | ((rng() % 64) << 3);
    refs.push_back(rng() % 3 == 0 ? writeRef(addr) : readRef(addr));
  }
  return Trace(std::move(refs));
}

/// Direct-mapped, 4-way tree-PLRU (the only policy with PLRU bits),
/// and the big L2 under tree-PLRU.
std::vector<CacheConfig> storageConfigs() {
  CacheConfig plru = sa(4096, 16, 4);
  plru.replacement = ReplacementPolicy::TreePLRU;
  return {dm(1024, 16), plru, bigL2(ReplacementPolicy::TreePLRU)};
}

TEST(CacheSimLines, CopyOfAWarmedSimContinuesIdentically) {
  for (const CacheConfig& config : storageConfigs()) {
    const std::uint64_t span = 4 * config.sizeBytes;
    CacheSim sim(config);
    sim.run(mixedTrace(span, 4000, 1));
    CacheSim copy = sim;
    CacheSim assigned(dm(64, 8));
    assigned = sim;
    const Trace next = mixedTrace(span, 4000, 2);
    sim.run(next);
    copy.run(next);
    CacheSim moved = std::move(assigned);
    moved.run(next);
    for (const CacheSim* other : {&copy, &moved}) {
      expectSameStats(other->stats(), sim.stats(), config.label());
      EXPECT_EQ(other->validLineCount(), sim.validLineCount())
          << config.label();
    }
  }
}

TEST(CacheSimLines, ResetEqualsAFreshSim) {
  for (const CacheConfig& config : storageConfigs()) {
    const std::uint64_t span = 4 * config.sizeBytes;
    CacheSim sim(config);
    sim.run(mixedTrace(span, 4000, 3));
    sim.reset();
    EXPECT_EQ(sim.validLineCount(), 0u) << config.label();
    CacheSim fresh(config);
    const Trace next = mixedTrace(span, 4000, 4);
    sim.run(next);
    fresh.run(next);
    expectSameStats(sim.stats(), fresh.stats(), config.label());
    EXPECT_EQ(sim.validLineCount(), fresh.validLineCount()) << config.label();
  }
}

TEST(CacheSimLines, BigL2MatchesTheReferenceSimulator) {
  for (const ReplacementPolicy replacement :
       {ReplacementPolicy::LRU, ReplacementPolicy::TreePLRU}) {
    const CacheConfig config = bigL2(replacement);
    // A short stream, as a search L2 sees, and a long conflict stream.
    for (const Trace& trace :
         {mixedTrace(1u << 16, 100, 5), bigL2ConflictTrace(20000, 6)}) {
      CacheSim sim(config);
      sim.run(trace);
      expectSameStats(sim.stats(), refSimulateTrace(config, trace),
                      config.label());
    }
  }
}

TEST(CacheStats, RatesComputed) {
  CacheStats s;
  s.reads = 8;
  s.readHits = 6;
  s.readMisses = 2;
  EXPECT_DOUBLE_EQ(s.missRate(), 0.25);
  EXPECT_DOUBLE_EQ(s.hitRate(), 0.75);
  EXPECT_DOUBLE_EQ(s.readMissRate(), 0.25);
}

TEST(CacheStats, EmptyRunHasZeroRates) {
  const CacheStats s;
  EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
  EXPECT_DOUBLE_EQ(s.hitRate(), 0.0);
}

/// Property sweep: on a pure sequential stream, miss rate == L_elem^-1
/// scaled: misses = ceil(bytes/line), independent of associativity.
class SequentialSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SequentialSweep, MissesEqualLinesTouched) {
  const auto [size, line, ways] = GetParam();
  CacheConfig c = sa(static_cast<std::uint32_t>(size),
                     static_cast<std::uint32_t>(line),
                     static_cast<std::uint32_t>(ways));
  const std::size_t n = 512;
  const Trace t = stridedTrace(0, n, 4, 4);
  const CacheStats s = simulateTrace(c, t);
  const std::uint64_t bytes = n * 4;
  EXPECT_EQ(s.misses(), bytes / static_cast<std::uint64_t>(line));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SequentialSweep,
    ::testing::Values(std::make_tuple(64, 8, 1), std::make_tuple(64, 8, 2),
                      std::make_tuple(128, 16, 4),
                      std::make_tuple(256, 32, 8),
                      std::make_tuple(1024, 64, 1),
                      std::make_tuple(32, 4, 1)));

/// Property sweep: when the working set fits the cache, every geometry
/// incurs only cold misses, regardless of associativity.
class FittingWorkingSetSweep : public ::testing::TestWithParam<int> {};

TEST_P(FittingWorkingSetSweep, OnlyColdMissesOnceResident) {
  const int line = GetParam();
  const Trace t = loopingTrace(0, 24, 6, 4);  // 96 bytes < 128-byte cache
  for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
    const CacheStats s = simulateTrace(
        sa(128, static_cast<std::uint32_t>(line), ways), t);
    EXPECT_EQ(s.misses(), 96u / static_cast<std::uint64_t>(line))
        << "ways=" << ways << " line=" << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Lines, FittingWorkingSetSweep,
                         ::testing::Values(4, 8, 16));

}  // namespace
}  // namespace memx
