#include <gtest/gtest.h>

#include "memx/cachesim/miss_classifier.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/trace_gen.hpp"

namespace memx {
namespace {

CacheConfig dm(std::uint32_t size, std::uint32_t line) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  return c;
}

TEST(OffChipAssign, PaperCompressExample) {
  // Section 4.1: byte elements, cache size 8, line size 2 => 4 lines.
  // The paper pads so a[1][0] lands at address 36 => cache line 2.
  const Kernel k = compressKernel(32, 1);
  const AssignmentPlan plan = assignConflictFree(k, dm(8, 2));
  ASSERT_EQ(plan.arrays.size(), 1u);
  EXPECT_TRUE(plan.complete);
  EXPECT_EQ(plan.arrays[0].baseAddr, 0u);
  EXPECT_EQ(plan.arrays[0].rowPitchBytes, 36u);
  // Row r starts at 36r; row 1 = 36 -> line 18 mod 4 = 2.
  const std::int64_t row1[] = {1, 0};
  EXPECT_EQ(plan.layout.address(0, row1), 36u);
}

TEST(OffChipAssign, PaperMatrixAddExample) {
  // Example 2: 6x6 byte arrays, line 2; minimal 3-line placement puts
  // a at 0, b at 38, c at 76. Our modulus is the (power-of-two) set
  // count, so we verify staggering rather than the literal addresses,
  // then check the literal addresses with a 3-slot helper cache of 8
  // lines where the paper's arithmetic still holds.
  const Kernel k = matrixAddKernel(6, 1);
  const AssignmentPlan plan = assignConflictFree(k, dm(16, 2));  // 8 lines
  EXPECT_TRUE(plan.complete);
  const std::int64_t origin[] = {0, 0};
  const std::uint64_t la =
      plan.layout.address(0, origin) / 2 % 8;
  const std::uint64_t lb =
      plan.layout.address(1, origin) / 2 % 8;
  const std::uint64_t lc =
      plan.layout.address(2, origin) / 2 % 8;
  EXPECT_EQ(la, 0u);
  EXPECT_EQ(lb, 1u);
  EXPECT_EQ(lc, 2u);
}

TEST(OffChipAssign, MatrixAddBasesAreMinimallyPadded) {
  const Kernel k = matrixAddKernel(6, 1);
  const AssignmentPlan plan = assignConflictFree(k, dm(16, 2));
  // a occupies [0, 36); b must start at the first address >= 36 whose
  // line slot is 1 => 34 is below 36, so 34+16=50? No: slots repeat every
  // 16 bytes (8 lines x 2): first candidate >= 36 with (addr/2)%8 == 1 is
  // 34 + 16 = 50.
  EXPECT_EQ(plan.arrays[0].baseAddr, 0u);
  EXPECT_EQ(plan.arrays[1].baseAddr, 50u);
}

TEST(OffChipAssign, SequentialLayoutIsTight) {
  const Kernel k = matrixAddKernel(6, 1);
  const MemoryLayout layout = sequentialLayout(k);
  const std::int64_t origin[] = {0, 0};
  EXPECT_EQ(layout.address(0, origin), 0u);
  EXPECT_EQ(layout.address(1, origin), 36u);
  EXPECT_EQ(layout.address(2, origin), 72u);
}

TEST(OffChipAssign, EliminatesConflictMissesOnCompress) {
  // Word-granular rows (128 bytes) alias in a 64-byte cache.
  const Kernel k = compressKernel(32, 4);
  const CacheConfig cache = dm(64, 8);
  const MissBreakdown unopt =
      classifyMisses(cache, generateTrace(k, sequentialLayout(k)));
  const AssignmentPlan plan = assignConflictFree(k, cache);
  const MissBreakdown opt =
      classifyMisses(cache, generateTrace(k, plan.layout));
  EXPECT_LT(opt.conflict, unopt.conflict / 10 + 1);
  EXPECT_LT(opt.missRate(), unopt.missRate());
}

TEST(OffChipAssign, EliminatesConflictMissesOnDequant) {
  // Three same-shaped arrays accessed in lockstep: the tight layout
  // aliases them badly in a small cache.
  const Kernel k = dequantKernel();
  const CacheConfig cache = dm(64, 8);
  const MissBreakdown unopt =
      classifyMisses(cache, generateTrace(k, sequentialLayout(k)));
  const AssignmentPlan plan = assignConflictFree(k, cache);
  const MissBreakdown opt =
      classifyMisses(cache, generateTrace(k, plan.layout));
  EXPECT_GT(unopt.conflictRate(), 0.4);
  EXPECT_EQ(opt.conflict, 0u);
}

TEST(OffChipAssign, PlanReportsPadding) {
  const Kernel k = dequantKernel();
  const AssignmentPlan plan = assignConflictFree(k, dm(64, 8));
  EXPECT_EQ(plan.totalPaddingBytes(),
            plan.arrays[0].paddingBytes + plan.arrays[1].paddingBytes +
                plan.arrays[2].paddingBytes);
}

TEST(OffChipAssign, GroupSlotsAreDistinctWhenComplete) {
  const Kernel k = sorKernel();
  const AssignmentPlan plan = assignConflictFree(k, dm(128, 8));
  ASSERT_TRUE(plan.complete);
  for (std::size_t i = 0; i < plan.groupSlots.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.groupSlots.size(); ++j) {
      EXPECT_NE(plan.groupSlots[i], plan.groupSlots[j]);
    }
  }
}

TEST(OffChipAssign, TooSmallCacheFallsBackIncomplete) {
  // 2 lines cannot stagger compress's 4 required lines.
  const Kernel k = compressKernel();
  const AssignmentPlan plan = assignConflictFree(k, dm(8, 4));
  EXPECT_FALSE(plan.complete);
}

TEST(OffChipAssign, LayoutCarriesOverToTiledKernels) {
  // The layout computed on the untiled kernel stays valid for any tiled
  // variant (arrays are unchanged); the tiled trace under the optimized
  // layout should have no more conflicts than under the tight one.
  const Kernel k = dequantKernel();
  const CacheConfig cache = dm(64, 8);
  const AssignmentPlan plan = assignConflictFree(k, cache);
  // Generate the tiled trace through both layouts via xform-free path:
  // (tiling preserves the access multiset; conflicts depend on order, so
  // just validate addresses stay in the padded regions).
  const Trace t = generateTrace(k, plan.layout);
  const std::uint64_t end = plan.layout.endAddr(k);
  for (const MemRef& r : t) {
    EXPECT_LT(r.addr + r.size, end + 1);
  }
}

TEST(OffChipAssign, ReportsProbeEffort) {
  // A certified plan probed at least its winner; every probe presents
  // at least one reference and at most the probe prefix.
  const Kernel k = compressKernel();
  const AssignmentPlan plan = assignConflictFree(k, dm(64, 8));
  ASSERT_TRUE(plan.complete);
  EXPECT_GE(plan.candidatesProbed, 1u);
  EXPECT_GE(plan.probeRefs, plan.candidatesProbed);
  EXPECT_LE(plan.probeRefs,
            plan.candidatesProbed * layoutProbePattern(k).size());
  // Below the minimum size nothing is probed.
  const AssignmentPlan tight = assignConflictFree(k, dm(8, 4));
  EXPECT_EQ(tight.candidatesProbed, 0u);
  EXPECT_EQ(tight.probeRefs, 0u);
}

TEST(OffChipAssign, SuppliedProbeMatchesDefaultProbe) {
  for (const Kernel& k : {compressKernel(), dequantKernel(), sorKernel()}) {
    const AccessPattern probe = layoutProbePattern(k);
    for (const CacheConfig& cache : {dm(32, 4), dm(64, 8), dm(256, 16)}) {
      const AssignmentPlan a = assignConflictFree(k, cache);
      const AssignmentPlan b = assignConflictFree(k, cache, 0, &probe);
      EXPECT_EQ(a.layout.signature(), b.layout.signature())
          << k.name << " " << cache.label();
      EXPECT_EQ(a.complete, b.complete);
      EXPECT_EQ(a.probeRefs, b.probeRefs);
    }
  }
}

/// Property sweep: whenever the plan reports complete, the optimized
/// layout has zero conflict misses across cache geometries.
class ConflictFreeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ConflictFreeSweep, CompleteImpliesNoConflictMisses) {
  const auto [size, line] = GetParam();
  const CacheConfig cache =
      dm(static_cast<std::uint32_t>(size), static_cast<std::uint32_t>(line));
  for (const Kernel& k :
       {matrixAddKernel(16, 4), dequantKernel(), pdeKernel()}) {
    const AssignmentPlan plan = assignConflictFree(k, cache);
    if (!plan.complete) continue;
    const MissBreakdown b =
        classifyMisses(cache, generateTrace(k, plan.layout));
    EXPECT_EQ(b.conflict, 0u)
        << k.name << " " << cache.label();
  }
}

INSTANTIATE_TEST_SUITE_P(Caches, ConflictFreeSweep,
                         ::testing::Values(std::make_pair(64, 8),
                                           std::make_pair(128, 8),
                                           std::make_pair(128, 16),
                                           std::make_pair(256, 16),
                                           std::make_pair(512, 32)));

}  // namespace
}  // namespace memx
