#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "memx/core/parallel_explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

ExploreOptions smallSweep() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 128;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 4;
  return o;
}

TEST(ParallelExplorer, MatchesSerialExactly) {
  const Kernel k = dequantKernel();
  const ExploreOptions o = smallSweep();
  const ExplorationResult serial = Explorer(o).explore(k);
  const ExplorationResult parallel = exploreParallel(k, o, 4);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(parallel.points[i].key, serial.points[i].key);
    EXPECT_DOUBLE_EQ(parallel.points[i].missRate,
                     serial.points[i].missRate);
    EXPECT_DOUBLE_EQ(parallel.points[i].cycles, serial.points[i].cycles);
    EXPECT_DOUBLE_EQ(parallel.points[i].energyNj,
                     serial.points[i].energyNj);
  }
}

TEST(ParallelExplorer, AgreesBitExactlyWithSerial) {
  // Stronger than MatchesSerialExactly: exact (not ULP-tolerant)
  // equality of every field, on a kernel deep enough that tiling
  // actually produces distinct trace groups.
  const Kernel k = compressKernel();
  const ExploreOptions o = smallSweep();
  const ExplorationResult serial = Explorer(o).explore(k);
  const ExplorationResult parallel = exploreParallel(k, o, 4);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(parallel.points[i].key, serial.points[i].key);
    EXPECT_EQ(parallel.points[i].accesses, serial.points[i].accesses);
    EXPECT_EQ(parallel.points[i].missRate, serial.points[i].missRate);
    EXPECT_EQ(parallel.points[i].cycles, serial.points[i].cycles);
    EXPECT_EQ(parallel.points[i].energyNj, serial.points[i].energyNj);
  }
}

TEST(ParallelExplorer, WorkerExceptionPropagates) {
  // An out-of-bounds access fires deep in the iteration space, during
  // trace generation inside a worker thread (optimizeLayout=false keeps
  // the serial planning phase from walking the nest first). The
  // exception must surface on the calling thread, not terminate().
  Kernel k;
  k.name = "oob";
  k.arrays = {ArrayDecl{"a", {100}, 4}};
  k.nest = LoopNest::rectangular({{0, 127}});
  k.body = {makeAccess(0, {AffineExpr::var(0)})};
  ExploreOptions o = smallSweep();
  o.optimizeLayout = false;
  try {
    (void)exploreParallel(k, o, 4);
    ADD_FAILURE() << "worker exception swallowed";
  } catch (const ContractViolation& e) {
    // The worker's own message, not a generic one from the join.
    EXPECT_NE(std::string(e.what()).find(
                  "subscript out of bounds in kernel oob array a"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelExplorer, SingleThreadWorks) {
  const Kernel k = matrixAddKernel(8, 1);
  const ExplorationResult r = exploreParallel(k, smallSweep(), 1);
  EXPECT_FALSE(r.points.empty());
  EXPECT_EQ(r.workload, "matadd");
}

TEST(ParallelExplorer, MoreThreadsThanPointsIsFine) {
  ExploreOptions o = smallSweep();
  o.ranges.maxCacheBytes = 16;
  o.ranges.maxLineBytes = 4;
  o.ranges.sweepAssociativity = false;
  o.ranges.sweepTiling = false;
  const ExplorationResult r =
      exploreParallel(matrixAddKernel(4, 1), o, 64);
  EXPECT_EQ(r.points.size(), 1u);
}

TEST(ParallelExplorer, DefaultThreadCount) {
  const ExplorationResult r =
      exploreParallel(matrixAddKernel(8, 1), smallSweep(), 0);
  EXPECT_FALSE(r.points.empty());
}

// The serve result store hands one cached result to many workers at
// once, so concurrent const lookups on a shared result must be safe and
// correct. Run under TSan this test is the tripwire.
TEST(ExplorationResultConcurrency, ConcurrentFindIsSafeAndCorrect) {
  const Kernel k = dequantKernel();
  const ExploreOptions o = smallSweep();
  const Explorer explorer(o);
  const ExplorationResult result = explorer.explore(k);
  const std::vector<ConfigKey> keys = explorer.sweepKeys();
  ASSERT_EQ(keys.size(), result.points.size());

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger starting offsets so threads look up different keys.
      for (std::size_t round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          const ConfigKey& key =
              keys[(i + static_cast<std::size_t>(t) * 7) % keys.size()];
          const DesignPoint* p = result.find(key);
          if (p == nullptr || p->key != key) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ConfigKey missing{3, 3, 3, 3};
  EXPECT_EQ(result.find(missing), nullptr);
}

// Repeated lookups on one result return the same point, and a copy
// answers from its own points rather than the original's.
TEST(ExplorationResultConcurrency, BuildIndexIsIdempotentAndCopiesDropIt) {
  const Kernel k = dequantKernel();
  const Explorer explorer(smallSweep());
  const ExplorationResult result = explorer.explore(k);
  ASSERT_FALSE(result.points.empty());
  const ConfigKey front = result.points.front().key;
  EXPECT_EQ(result.find(front), &result.points.front());
  EXPECT_EQ(result.find(front), &result.points.front());

  const ExplorationResult copy(result);
  EXPECT_EQ(copy.find(front), &copy.points.front());
  EXPECT_NE(copy.find(front), result.find(front));
}

}  // namespace
}  // namespace memx
