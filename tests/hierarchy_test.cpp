#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "memx/cachesim/hierarchy.hpp"
#include "memx/check/ref_cache_sim.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/trace/generators.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

CacheConfig cfg(std::uint32_t size, std::uint32_t line,
                std::uint32_t ways = 1) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = ways;
  return c;
}

/// The production two-level path: one L1 filter pass, its L2 stream
/// replayed through a one-member MultiSim bank of the span-sized L2. The
/// L2's line fills are the stack's off-chip traffic.
HierarchyStats runStack(const CacheConfig& l1, const CacheConfig& l2,
                        const Trace& trace) {
  checkInclusion(l1, l2);
  const L1Filter filtered = filterL1(l1, trace);
  ConfigBank bank(SweepBackend::MultiSim,
                  {spanSizedL2(l2, filtered.l2Stream)});
  bank.run(filtered.l2Stream);
  return HierarchyStats{filtered.l1, bank.stats(0)};
}

TEST(Hierarchy, RejectsInvertedGeometry) {
  EXPECT_THROW(checkInclusion(cfg(256, 16), cfg(64, 16)), ContractViolation);
  EXPECT_THROW(checkInclusion(cfg(64, 16), cfg(256, 8)), ContractViolation);
}

TEST(Hierarchy, L1HitNeverTouchesL2) {
  Trace t;
  t.push(readRef(0));  // cold: both levels miss
  t.push(readRef(0));  // L1 hit
  t.push(readRef(4));  // L1 hit (same line)
  const HierarchyStats s = runStack(cfg(64, 8), cfg(512, 16), t);
  EXPECT_EQ(s.l1.hits(), 2u);
  EXPECT_EQ(s.l2.accesses(), 1u);
}

TEST(Hierarchy, L2CatchesL1CapacityMisses) {
  // Working set fits L2 but not L1: second round hits in L2.
  const Trace t = loopingTrace(0, 64, 2, 4);  // 256 B set, 2 rounds
  const HierarchyStats s = runStack(cfg(64, 8), cfg(1024, 8), t);
  EXPECT_GT(s.l1.misses(), 32u);  // L1 thrashes
  // Only the cold fills leave the chip.
  EXPECT_EQ(s.l2.lineFills, 32u);
  EXPECT_LT(s.globalMissRate(), s.l1.missRate());
}

TEST(Hierarchy, GlobalMissRateEqualsL1WhenL2Useless) {
  // L2 == L1 size: everything L1 misses, L2 misses too (same contents).
  const HierarchyStats s =
      runStack(cfg(64, 8), cfg(64, 8), randomTrace(0, 65536, 2000, 3));
  EXPECT_NEAR(s.globalMissRate(), s.l1.missRate(), 0.02);
}

TEST(Hierarchy, DirtyVictimsAbsorbedByL2) {
  Trace t;
  t.push(writeRef(0));   // dirty line 0 in L1
  t.push(writeRef(16));  // set 0 conflict? 16B L1, 8B lines: 2 sets.
  t.push(writeRef(32));  // evicts dirty line 0 -> L2 write
  t.push(writeRef(64));  // evicts dirty line 32
  const HierarchyStats s = runStack(cfg(16, 8), cfg(256, 8), t);
  EXPECT_GT(s.l1.writebacks, 0u);
  EXPECT_GT(s.l2.writes, 0u);
  // L2 holds the victims: nothing dirty left the chip yet.
  EXPECT_EQ(s.l2.writebacks, 0u);
}

TEST(Hierarchy, TimingModelAccumulates) {
  HierarchyStats s;
  s.l1.reads = 100;
  s.l1.readHits = 90;
  s.l1.readMisses = 10;
  s.l2.reads = 10;
  s.l2.readHits = 8;
  s.l2.readMisses = 2;
  EXPECT_DOUBLE_EQ(hierarchyCycles(s), 100 * 1.0 + 10 * 8.0 + 2 * 40.0);
}

TEST(Hierarchy, L2ReducesOffChipTrafficOnKernels) {
  const Trace t = generateTrace(sorKernel());
  const HierarchyStats with = runStack(cfg(64, 8), cfg(1024, 16), t);
  CacheSim without(cfg(64, 8));
  without.run(t);
  EXPECT_LT(with.l2.lineFills, without.stats().lineFills);
}

void expectSameStats(const CacheStats& got, const CacheStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.reads, want.reads) << what;
  EXPECT_EQ(got.writes, want.writes) << what;
  EXPECT_EQ(got.readHits, want.readHits) << what;
  EXPECT_EQ(got.readMisses, want.readMisses) << what;
  EXPECT_EQ(got.writeHits, want.writeHits) << what;
  EXPECT_EQ(got.writeMisses, want.writeMisses) << what;
  EXPECT_EQ(got.lineFills, want.lineFills) << what;
  EXPECT_EQ(got.writebacks, want.writebacks) << what;
  EXPECT_EQ(got.memWrites, want.memWrites) << what;
}

/// A stream touching `lines` consecutive 16-byte lines from line `first`:
/// a write to each, a read of each, then a write to the first again, so
/// write-back, write-through and every hit/miss counter see traffic.
Trace lineWalk(std::uint64_t first, std::uint64_t lines) {
  Trace t;
  for (std::uint64_t round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < lines; ++i) {
      const std::uint64_t addr = (first + i) * 16;
      t.push(round == 0 ? writeRef(addr) : readRef(addr + 4));
    }
  }
  t.push(writeRef(first * 16 + 8));
  return t;
}

TEST(Hierarchy, SpanSizedL2MatchesFullSizeL2) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  Trace straddling;  // 8-byte references across line boundaries
  for (std::uint64_t i = 0; i < 10; ++i) {
    straddling.push(i % 2 == 0 ? writeRef(100 * 16 + i * 16 + 12, 8)
                               : readRef(100 * 16 + i * 16 + 12, 8));
  }
  straddling.push(readRef(100 * 16 + 12, 8));
  Trace extremes;  // line index range [0, 2^64 - 1]: hi - lo + 1 wraps
  extremes.push(writeRef(0, 1));
  extremes.push(readRef(kTop, 1));
  extremes.push(readRef(0, 1));
  extremes.push(writeRef(kTop, 1));
  struct Case {
    const char* name;
    CacheConfig l2;  // geometry; policies come from the loops below
    Trace stream;
    std::uint32_t sizedSets;  // sets of spanSizedL2
  };
  // 2 KiB, 16-byte lines, 2 ways: 64 sets. The direct-mapped 64-set
  // twin makes span == sets + 1 conflict at full size.
  const std::vector<Case> cases = {
      {"span < sets", cfg(2048, 16, 2), lineWalk(7, 20), 32},
      {"span == sets", cfg(2048, 16, 2), lineWalk(7, 64), 64},
      {"span == sets + 1", cfg(1024, 16, 1), lineWalk(7, 65), 64},
      {"straddling", cfg(2048, 16, 2), straddling, 16},
      {"empty", cfg(2048, 16, 2), Trace{}, 1},
      {"1-byte lines at 0 and 2^64-1", cfg(64, 1, 1), extremes, 64},
  };
  for (const Case& c : cases) {
    for (const ReplacementPolicy repl :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::TreePLRU, ReplacementPolicy::Random}) {
      for (const WritePolicy write :
           {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
        CacheConfig l2 = c.l2;
        l2.replacement = repl;
        l2.writePolicy = write;
        const std::string what = std::string(c.name) + " " + toString(repl) +
                                 " " + toString(write);
        const CacheConfig sized = spanSizedL2(l2, c.stream);
        EXPECT_EQ(sized.numSets(), c.sizedSets) << what;
        CacheConfig rest = sized;  // everything but the capacity is l2's
        rest.sizeBytes = l2.sizeBytes;
        EXPECT_EQ(rest, l2) << what;
        if (c.sizedSets == l2.numSets()) {
          EXPECT_EQ(sized, l2) << what;
        }

        ConfigBank full(SweepBackend::MultiSim, {l2});
        full.run(c.stream);
        ConfigBank spanned(SweepBackend::MultiSim, {sized});
        spanned.run(c.stream);
        expectSameStats(spanned.stats(0), full.stats(0), what + " vs bank");
        expectSameStats(spanned.stats(0), refSimulateTrace(l2, c.stream),
                        what + " vs RefCacheSim");
      }
    }
  }
}

/// Property: the L2 never sees more accesses than L1 misses + L1
/// writebacks.
class HierarchyTraffic : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyTraffic, L2TrafficBounded) {
  const int seed = GetParam();
  const HierarchyStats s =
      runStack(cfg(64, 8), cfg(512, 16),
               randomTrace(0, 8192, 3000, static_cast<std::uint64_t>(seed)));
  EXPECT_LE(s.l2.accesses(), s.l1.misses() + s.l1.writebacks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyTraffic,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace memx
