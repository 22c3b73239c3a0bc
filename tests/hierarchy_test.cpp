#include <gtest/gtest.h>

#include "memx/cachesim/hierarchy.hpp"
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
/// replayed through a one-member MultiSim bank. The L2's line fills are
/// the stack's off-chip traffic.
HierarchyStats runStack(const CacheConfig& l1, const CacheConfig& l2,
                        const Trace& trace) {
  checkInclusion(l1, l2);
  const L1Filter filtered = filterL1(l1, trace);
  ConfigBank bank(SweepBackend::MultiSim, {l2});
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
