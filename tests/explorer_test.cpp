#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "memx/core/explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

ExploreOptions smallSweep() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 128;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 4;
  return o;
}

TEST(ExploreRanges, ValidateRejectsBadBounds) {
  ExploreRanges r;
  r.minCacheBytes = 48;
  EXPECT_THROW(r.validate(), ContractViolation);
  r = ExploreRanges{};
  r.minCacheBytes = 256;
  r.maxCacheBytes = 64;
  EXPECT_THROW(r.validate(), ContractViolation);
  r = ExploreRanges{};
  r.minLineBytes = 2;  // below the cycle-model table
  EXPECT_THROW(r.validate(), ContractViolation);
}

TEST(Explorer, SweepKeysRespectConstraints) {
  const Explorer ex(smallSweep());
  const auto keys = ex.sweepKeys();
  EXPECT_FALSE(keys.empty());
  for (const ConfigKey& k : keys) {
    EXPECT_LE(k.lineBytes, k.cacheBytes);
    EXPECT_LE(k.associativity * k.lineBytes, k.cacheBytes);
    EXPECT_LE(k.tiling, k.cacheBytes / k.lineBytes);
    EXPECT_LE(k.associativity, 2u);
    EXPECT_LE(k.tiling, 4u);
  }
}

TEST(Explorer, SweepKeysAreUnique) {
  const Explorer ex(smallSweep());
  auto keys = ex.sweepKeys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Explorer, OnChipLimitCapsCacheSize) {
  ExploreOptions o = smallSweep();
  o.ranges.onChipBytes = 32;
  const Explorer ex(o);
  for (const ConfigKey& k : ex.sweepKeys()) {
    EXPECT_LE(k.cacheBytes, 32u);
  }
}

TEST(Explorer, EvaluateFillsEveryMetric) {
  const Explorer ex(smallSweep());
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint p = ex.evaluate(compressKernel(), c, 1);
  EXPECT_EQ(p.accesses, 4805u);
  EXPECT_GT(p.missRate, 0.0);
  EXPECT_LT(p.missRate, 1.0);
  EXPECT_GT(p.cycles, static_cast<double>(p.accesses));
  EXPECT_GT(p.energyNj, 0.0);
  EXPECT_EQ(p.key.cacheBytes, 64u);
  EXPECT_EQ(p.key.tiling, 1u);
}

TEST(Explorer, ExploreVisitsEveryKey) {
  const Explorer ex(smallSweep());
  const ExplorationResult r = ex.explore(dequantKernel(8));
  EXPECT_EQ(r.workload, "dequant");
  EXPECT_EQ(r.points.size(), ex.sweepKeys().size());
  for (const ConfigKey& k : ex.sweepKeys()) {
    EXPECT_NE(r.find(k), nullptr) << k.label();
  }
}

TEST(Explorer, ResultAtThrowsOnUnexploredKey) {
  const Explorer ex(smallSweep());
  const ExplorationResult r = ex.explore(matrixAddKernel(8, 4));
  EXPECT_THROW((void)r.at(ConfigKey{4096, 64, 1, 1}), ContractViolation);
}

TEST(ExplorationResult, FindIndexRebuildsAfterAppend) {
  // An appended point is found by the next lookup, and earlier points
  // keep their addresses.
  ExplorationResult r;
  DesignPoint p;
  p.key = ConfigKey{64, 8, 1, 1};
  p.cycles = 10.0;
  r.points.push_back(p);
  const DesignPoint* first = r.find(ConfigKey{64, 8, 1, 1});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->cycles, 10.0);
  EXPECT_EQ(r.find(ConfigKey{128, 8, 1, 1}), nullptr);

  p.key = ConfigKey{128, 8, 1, 1};
  p.cycles = 20.0;
  r.points.push_back(p);
  const DesignPoint* second = r.find(ConfigKey{128, 8, 1, 1});
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->cycles, 20.0);
  EXPECT_EQ(&r.at(ConfigKey{64, 8, 1, 1}), &r.points[0]);
}

TEST(ExplorationResult, GrowingArchiveAppendsToIndexInsteadOfRebuilding) {
  // Lookups interleaved with appends (in non-sorted key order), the
  // pattern of any result grown in batches: every point stays findable,
  // a duplicate key never shadows the first occurrence, and a shrink
  // drops the popped points. The name predates the removal of the
  // incremental lookup index; only lookup behaviour is checked.
  ExplorationResult r;
  const auto append = [&](std::uint32_t size, double cycles) {
    DesignPoint p;
    p.key = ConfigKey{size, 8, 1, 1};
    p.cycles = cycles;
    r.points.push_back(p);
  };
  append(64, 1.0);
  ASSERT_NE(r.find(ConfigKey{64, 8, 1, 1}), nullptr);

  std::uint32_t sizes[] = {512, 32, 256, 16, 128};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    append(sizes[i], static_cast<double>(sizes[i]));
    const DesignPoint* fresh = r.find(ConfigKey{sizes[i], 8, 1, 1});
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->cycles, static_cast<double>(sizes[i]));
    ASSERT_NE(r.find(ConfigKey{64, 8, 1, 1}), nullptr);
  }

  // An appended duplicate key must not shadow the original: find()
  // returns the first occurrence.
  append(64, 99.0);
  const DesignPoint* dup = r.find(ConfigKey{64, 8, 1, 1});
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup, &r.points[0]);
  EXPECT_EQ(dup->cycles, 1.0);

  // A shrink drops the popped points from every later lookup.
  r.points.pop_back();
  r.points.pop_back();
  ASSERT_NE(r.find(ConfigKey{64, 8, 1, 1}), nullptr);
  EXPECT_EQ(r.find(ConfigKey{128, 8, 1, 1}), nullptr);
}

TEST(ExplorationResult, FindNeverReturnsWrongPointAfterKeyMutation) {
  // A same-size in-place key rewrite: find() must never hand back a
  // point whose key is not the one asked for.
  ExplorationResult r;
  for (std::uint32_t size : {32u, 64u, 128u}) {
    DesignPoint p;
    p.key = ConfigKey{size, 8, 1, 1};
    p.cycles = static_cast<double>(size);
    r.points.push_back(p);
  }
  const ConfigKey oldKey{64, 8, 1, 1};
  const ConfigKey newKey{256, 16, 2, 1};
  ASSERT_NE(r.find(oldKey), nullptr);

  r.points[1].key = newKey;  // in-place rewrite, size unchanged
  EXPECT_EQ(r.find(oldKey), nullptr);
  const DesignPoint* moved = r.find(newKey);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved, &r.points[1]);
}

TEST(ExplorationResult, InvalidateIndexPicksUpMutatedKeys) {
  // The rewritten key is queried first after the rewrite, before the
  // old key; both lookups must see the new key.
  ExplorationResult r;
  DesignPoint p;
  p.key = ConfigKey{64, 8, 1, 1};
  r.points.push_back(p);
  p.key = ConfigKey{128, 8, 1, 1};
  r.points.push_back(p);
  ASSERT_NE(r.find(ConfigKey{64, 8, 1, 1}), nullptr);

  const ConfigKey newKey{512, 32, 1, 1};
  r.points[0].key = newKey;
  const DesignPoint* found = r.find(newKey);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &r.points[0]);
  EXPECT_EQ(r.find(ConfigKey{64, 8, 1, 1}), nullptr);
}

TEST(Explorer, PlanSurvivesLaterPlanning) {
  // Group layout pointers alias the Explorer's layout memo. The memo
  // only grows and its std::map nodes never move, so planning other
  // kernels afterwards must leave an earlier plan's layouts intact.
  Explorer ex(smallSweep());
  const Kernel kernel = compressKernel();
  const SweepPlan plan = ex.planSweep(kernel, ex.sweepKeys());
  ASSERT_FALSE(plan.groups.empty());
  (void)ex.planSweep(dequantKernel(), ex.sweepKeys());
  (void)ex.planSweep(sorKernel(), ex.sweepKeys());

  Explorer::PatternCache patterns;
  std::vector<DesignPoint> points(plan.keys.size());
  for (const SweepPlan::Group& group : plan.groups) {
    const Trace trace = ex.buildGroupTrace(kernel, group, patterns);
    ex.evaluateGroup(group, trace, ex.addrActivityFor(trace), plan.keys,
                     points);
  }
  const ExplorationResult fresh = Explorer(smallSweep()).explore(kernel);
  ASSERT_EQ(points.size(), fresh.points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].key, fresh.points[i].key);
    EXPECT_EQ(points[i].accesses, fresh.points[i].accesses);
    EXPECT_EQ(points[i].missRate, fresh.points[i].missRate);
    EXPECT_EQ(points[i].cycles, fresh.points[i].cycles);
    EXPECT_EQ(points[i].energyNj, fresh.points[i].energyNj);
  }
}

TEST(ExplorationResult, FindReturnsFirstOfDuplicateKeys) {
  ExplorationResult r;
  DesignPoint p;
  p.key = ConfigKey{64, 8, 1, 1};
  p.cycles = 1.0;
  r.points.push_back(p);
  p.cycles = 2.0;
  r.points.push_back(p);
  const DesignPoint* found = r.find(p.key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &r.points[0]);
}

TEST(Explorer, ExploreMatchesPerPointEvaluateExactly) {
  // The shared-trace engine must be bit-identical to the reference
  // per-point path (the old explore() implementation).
  const Explorer ex(smallSweep());
  const Kernel k = compressKernel();
  const ExplorationResult r = ex.explore(k);
  const std::vector<ConfigKey> keys = ex.sweepKeys();
  ASSERT_EQ(r.points.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const DesignPoint p =
        ex.evaluate(k, ex.configFor(keys[i]), keys[i].tiling);
    EXPECT_EQ(r.points[i].key, p.key);
    EXPECT_EQ(r.points[i].accesses, p.accesses);
    EXPECT_EQ(r.points[i].missRate, p.missRate);
    EXPECT_EQ(r.points[i].cycles, p.cycles);
    EXPECT_EQ(r.points[i].energyNj, p.energyNj);
  }
}

TEST(Explorer, SameNamedKernelsDoNotShareMemoizedLayouts) {
  // The layout and trace memos key on the kernel's structure, not its
  // name: a second kernel reusing the first one's name must get the
  // points a fresh Explorer computes for it.
  const Explorer shared(smallSweep());
  const Kernel first = compressKernel();
  (void)shared.explore(first);
  Kernel second = dequantKernel();
  second.name = first.name;
  const ExplorationResult reused = shared.explore(second);
  const ExplorationResult fresh = Explorer(smallSweep()).explore(second);
  ASSERT_EQ(reused.points.size(), fresh.points.size());
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    const DesignPoint& a = reused.points[i];
    const DesignPoint& b = fresh.points[i];
    if (a.key != b.key || a.accesses != b.accesses ||
        a.missRate != b.missRate || a.cycles != b.cycles ||
        a.energyNj != b.energyNj) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u) << "of " << fresh.points.size() << " points";

  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint viaShared = shared.evaluate(second, c, 2);
  const DesignPoint viaFresh = Explorer(smallSweep()).evaluate(second, c, 2);
  EXPECT_EQ(viaShared.missRate, viaFresh.missRate);
  EXPECT_EQ(viaShared.energyNj, viaFresh.energyNj);
}

TEST(Explorer, UntileableKernelPlansOneLayoutPerGeometry) {
  // A one-deep nest runs untiled whatever B a key carries, so the
  // layout memo holds one assignment per (T, L, S), not per B.
  const Kernel k = mpegDisplayKernel();
  ASSERT_LT(k.nest.depth(), 2u);
  obs::Recorder recorder;
  Explorer ex(smallSweep());
  ex.setRecorder(&recorder);
  const std::vector<ConfigKey> keys = ex.sweepKeys();
  (void)ex.planSweep(k, keys);
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> geoms;
  for (const ConfigKey& key : keys) {
    geoms.insert({key.cacheBytes, key.lineBytes, key.associativity});
  }
  ASSERT_LT(geoms.size(), keys.size());
  EXPECT_EQ(recorder.counter("layout.cache_miss").value(), geoms.size());
  EXPECT_EQ(recorder.counter("layout.cache_hit").value(),
            keys.size() - geoms.size());
}

TEST(Explorer, OptimizedLayoutNeverWorseOnCompress) {
  ExploreOptions opt = smallSweep();
  ExploreOptions unopt = smallSweep();
  unopt.optimizeLayout = false;
  const Explorer exOpt(opt);
  const Explorer exUnopt(unopt);
  const Kernel k = compressKernel();
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint a = exOpt.evaluate(k, c);
  const DesignPoint b = exUnopt.evaluate(k, c);
  EXPECT_LE(a.missRate, b.missRate);
}

TEST(Explorer, LargerCacheNeverMoreMissesSameLine) {
  const Explorer ex(smallSweep());
  const Kernel k = sorKernel();
  double prev = 2.0;
  for (const std::uint32_t size : {16u, 32u, 64u, 128u}) {
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = 8;
    const double mr = ex.evaluate(k, c).missRate;
    EXPECT_LE(mr, prev + 1e-9) << "size=" << size;
    prev = mr;
  }
}

TEST(Explorer, TilingTermRaisesCyclesAtFixedMissRate) {
  // For a 1-deep kernel tiling cannot change the trace, so the B term
  // strictly raises cycles.
  Kernel k;
  k.name = "stream";
  k.arrays = {ArrayDecl{"a", {256}, 4}};
  k.nest = LoopNest::rectangular({{0, 255}});
  k.body = {makeAccess(0, {AffineExpr::var(0)})};
  const Explorer ex(smallSweep());
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint b1 = ex.evaluate(k, c, 1);
  const DesignPoint b4 = ex.evaluate(k, c, 4);
  EXPECT_DOUBLE_EQ(b1.missRate, b4.missRate);
  EXPECT_LT(b1.cycles, b4.cycles);
}

TEST(Explorer, MeasuredBusActivityChangesEnergy) {
  ExploreOptions measured = smallSweep();
  ExploreOptions fixed = smallSweep();
  fixed.measureBusActivity = false;
  const Kernel k = compressKernel();
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint a = Explorer(measured).evaluate(k, c);
  const DesignPoint b = Explorer(fixed).evaluate(k, c);
  // Same miss profile, slightly different E_dec/E_io terms.
  EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
  EXPECT_NE(a.energyNj, b.energyNj);
}

TEST(Explorer, WritePolicyConfigurable) {
  ExploreOptions o = smallSweep();
  o.writePolicy = WritePolicy::WriteThrough;
  const Explorer ex(o);
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  EXPECT_NO_THROW((void)ex.evaluate(compressKernel(), c));
}

TEST(Explorer, WriteEnergyOptionRaisesEnergy) {
  ExploreOptions readOnly = smallSweep();
  ExploreOptions withWrites = smallSweep();
  withWrites.includeWriteEnergy = true;
  const Kernel k = compressKernel();
  CacheConfig c;
  c.sizeBytes = 64;
  c.lineBytes = 8;
  const DesignPoint a = Explorer(readOnly).evaluate(k, c);
  const DesignPoint b = Explorer(withWrites).evaluate(k, c);
  EXPECT_DOUBLE_EQ(a.missRate, b.missRate);
  EXPECT_GT(b.energyNj, a.energyNj);
}

TEST(ConfigKey, LabelsAndOrdering) {
  EXPECT_EQ((ConfigKey{64, 8, 1, 1}).label(), "C64L8");
  EXPECT_EQ((ConfigKey{64, 8, 4, 8}).label(), "C64L8S4B8");
  EXPECT_LT((ConfigKey{16, 4, 1, 1}), (ConfigKey{16, 4, 1, 2}));
}

}  // namespace
}  // namespace memx
