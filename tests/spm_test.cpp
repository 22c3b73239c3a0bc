#include <gtest/gtest.h>

#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/spm/allocation.hpp"
#include "memx/spm/scratchpad.hpp"
#include "memx/spm/spm_explorer.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

TEST(Scratchpad, ConfigValidation) {
  ScratchpadConfig c;
  c.sizeBytes = 48;
  EXPECT_THROW(c.validate(), ContractViolation);
  c.sizeBytes = 2;
  EXPECT_THROW(c.validate(), ContractViolation);
  c.sizeBytes = 256;
  EXPECT_NO_THROW(c.validate());
}

TEST(Scratchpad, EnergyScalesWithCapacityAndBeatsCacheHit) {
  ScratchpadCostModel cost;
  ScratchpadConfig small{64};
  ScratchpadConfig big{256};
  EXPECT_LT(cost.accessEnergyNj(small), cost.accessEnergyNj(big));
  // Equal-capacity cache hit energy (beta * 8T / 1000) is higher by the
  // efficiency factor.
  const double cacheCell = 2.0 * 8.0 * 64 * 1e-3;
  EXPECT_NEAR(cost.accessEnergyNj(small), 0.6 * cacheCell, 1e-12);
}

TEST(Scratchpad, CostModelValidation) {
  ScratchpadCostModel cost;
  cost.efficiency = 0.0;
  EXPECT_THROW(cost.validate(), ContractViolation);
  cost = ScratchpadCostModel{};
  cost.efficiency = 1.5;
  EXPECT_THROW(cost.validate(), ContractViolation);
}

TEST(Allocation, ProfileCountsPerArray) {
  // Dequant: coef read, qtab read, out write — one access each per
  // iteration over 31x31.
  const Kernel k = dequantKernel();
  const auto usages = profileArrayUsage(k);
  ASSERT_EQ(usages.size(), 3u);
  for (const ArrayUsage& u : usages) {
    EXPECT_EQ(u.accesses, 961u);
    EXPECT_EQ(u.sizeBytes, 1024u);
  }
}

TEST(Allocation, ProfileWeightsMultiplyAccessedArrays) {
  // SOR touches its single array six times per iteration.
  const auto usages = profileArrayUsage(sorKernel());
  ASSERT_EQ(usages.size(), 1u);
  EXPECT_EQ(usages[0].accesses, 6u * 961u);
}

TEST(Allocation, GreedyPrefersDensestArray) {
  std::vector<ArrayUsage> usages = {
      {0, 1024, 1000},  // density ~1
      {1, 64, 640},     // density 10  <- best per byte
      {2, 64, 320},     // density 5
  };
  const SpmAllocation a = allocateGreedy(usages, 128);
  EXPECT_EQ(a.arrayIndices, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(a.usedBytes, 128u);
  EXPECT_EQ(a.capturedAccesses, 960u);
}

TEST(Allocation, OptimalBeatsGreedyOnPathologicalCase) {
  // Greedy takes the dense small item and wastes the rest; optimal
  // takes the two larger ones.
  std::vector<ArrayUsage> usages = {
      {0, 60, 600},   // density 10, but blocks both others
      {1, 50, 450},   // density 9
      {2, 50, 450},   // density 9
  };
  const SpmAllocation greedy = allocateGreedy(usages, 100);
  const SpmAllocation optimal = allocateOptimal(usages, 100);
  EXPECT_EQ(greedy.capturedAccesses, 600u);
  EXPECT_EQ(optimal.capturedAccesses, 900u);
  EXPECT_EQ(optimal.arrayIndices, (std::vector<std::size_t>{1, 2}));
}

TEST(Allocation, OptimalNeverWorseThanGreedy) {
  const auto usages = profileArrayUsage(mpegDequantKernel());
  for (const std::uint64_t cap : {64u, 128u, 1024u, 4096u}) {
    EXPECT_GE(allocateOptimal(usages, cap).capturedAccesses,
              allocateGreedy(usages, cap).capturedAccesses)
        << "cap=" << cap;
  }
}

TEST(Allocation, RespectsCapacity) {
  const auto usages = profileArrayUsage(dequantKernel());
  for (const std::uint64_t cap : {0u, 512u, 1024u, 2048u, 4096u}) {
    EXPECT_LE(allocateOptimal(usages, cap).usedBytes, cap);
    EXPECT_LE(allocateGreedy(usages, cap).usedBytes, cap);
  }
}

TEST(Allocation, DpCapacityGuard) {
  EXPECT_THROW(allocateOptimal({}, 1u << 20), ContractViolation);
}

TEST(SpmExplorer, CapturedAccessesLeaveTheCache) {
  // The MPEG dequant kernel reuses its 128-byte quantizer table heavily:
  // a 128-byte SPM captures those accesses.
  const Kernel k = mpegDequantKernel();
  ScratchpadConfig spm{128};
  CacheConfig cache;
  cache.sizeBytes = 64;
  cache.lineBytes = 8;
  const SplitResult r = evaluateSplit(k, spm, cache);
  EXPECT_EQ(r.spmArrays, (std::vector<std::string>{"qtab"}));
  EXPECT_EQ(r.spmAccesses, 24u * 64u);  // one qtab read per iteration
  EXPECT_EQ(r.totalAccesses, 3u * 24u * 64u);
}

TEST(SpmExplorer, AllArraysInSpmMeansNoCacheTraffic) {
  const Kernel k = matrixAddKernel(4, 1);  // 3 x 16-byte arrays
  ScratchpadConfig spm{64};
  CacheConfig cache;
  cache.sizeBytes = 16;
  cache.lineBytes = 4;
  const SplitResult r = evaluateSplit(k, spm, cache);
  EXPECT_EQ(r.spmAccesses, r.totalAccesses);
  EXPECT_DOUBLE_EQ(r.cacheMissRate, 0.0);
  EXPECT_GT(r.energyNj, 0.0);
}

TEST(SpmExplorer, CacheHalfHonoursWriteEnergyAndLeakage) {
  // qtab goes to the SPM; the cache half still writes the output array
  // back line by line, which write energy must charge.
  const Kernel k = mpegDequantKernel();
  ScratchpadConfig spm{128};
  CacheConfig cache;
  cache.sizeBytes = 64;
  cache.lineBytes = 8;
  SpmSplitOptions options;
  options.base.writePolicy = WritePolicy::WriteBack;
  const SplitResult plain = evaluateSplit(k, spm, cache, options);

  SpmSplitOptions writes = options;
  writes.base.includeWriteEnergy = true;
  const SplitResult withWrites = evaluateSplit(k, spm, cache, writes);
  EXPECT_GT(withWrites.energyNj, plain.energyNj);
  EXPECT_EQ(withWrites.cycles, plain.cycles);

  SpmSplitOptions leaky = options;
  leaky.base.energy.leakagePjPerBytePerCycle = 0.01;
  const SplitResult withLeakage = evaluateSplit(k, spm, cache, leaky);
  EXPECT_GT(withLeakage.energyNj, plain.energyNj);
  EXPECT_EQ(withLeakage.cycles, plain.cycles);
}

TEST(SpmExplorer, BudgetSweepContainsCacheOnlyBaseline) {
  const auto results = exploreBudgetSplits(dequantKernel(), 256, 8);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.front().spmBytes, 0u);
  EXPECT_EQ(results.front().cache.sizeBytes, 256u);
  for (const SplitResult& r : results) {
    EXPECT_LE(r.spmBytes + r.cache.sizeBytes, 256u + 128u);
  }
}

TEST(SpmExplorer, LabelFormat) {
  SplitResult r;
  r.spmBytes = 128;
  r.cache.sizeBytes = 64;
  r.cache.lineBytes = 8;
  EXPECT_EQ(r.label(), "SPM128+C64L8");
}

TEST(SpmExplorer, RejectsBadBudget) {
  EXPECT_THROW(exploreBudgetSplits(dequantKernel(), 100, 8),
               ContractViolation);
  EXPECT_THROW(exploreBudgetSplits(dequantKernel(), 16, 8),
               ContractViolation);
}

}  // namespace
}  // namespace memx
