#include <gtest/gtest.h>

#include "memx/core/selection.hpp"

namespace memx {
namespace {

DesignPoint pt(std::uint32_t size, double cycles, double energy) {
  DesignPoint p;
  p.key = ConfigKey{size, 8, 1, 1};
  p.cycles = cycles;
  p.energyNj = energy;
  return p;
}

const std::vector<DesignPoint> kPoints = {
    pt(16, 9000, 3000),   // slow, frugal
    pt(32, 7000, 3500),
    pt(64, 5000, 5000),
    pt(128, 4200, 6500),
    pt(256, 4000, 9000),  // fast, hungry
    pt(512, 4100, 9500),  // dominated by 256 in cycles, worse energy
};

TEST(Selection, GlobalMinEnergy) {
  const auto p = minEnergyPoint(kPoints);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 16u);
}

TEST(Selection, GlobalMinCycles) {
  const auto p = minCyclePoint(kPoints);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 256u);
}

TEST(Selection, MinEnergyUnderCycleBound) {
  // Paper Figure 4 scenario: bound the cycles, pick minimum energy.
  const auto p = minEnergyPoint(kPoints, 5000.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 64u);
}

TEST(Selection, MinCyclesUnderEnergyBound) {
  const auto p = minCyclePoint(kPoints, 5500.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 64u);
}

TEST(Selection, UnsatisfiableBoundsReturnNothing) {
  EXPECT_FALSE(minEnergyPoint(kPoints, 100.0).has_value());
  EXPECT_FALSE(minCyclePoint(kPoints, 100.0).has_value());
  EXPECT_FALSE(minEnergyPoint(kPoints, 4500.0, 4000.0).has_value());
}

TEST(Selection, BestUnderBothBounds) {
  const auto p = minEnergyPoint(kPoints, 7500.0, 4000.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 32u);
}

TEST(Selection, BoundsAreInclusive) {
  const auto p = minEnergyPoint(kPoints, 4000.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 256u);
}

TEST(Selection, ParetoFrontExcludesDominated) {
  const auto front = paretoFront(kPoints);
  ASSERT_EQ(front.size(), 5u);  // every point but the 512 one
  for (const DesignPoint& p : front) {
    EXPECT_NE(p.key.cacheBytes, 512u);
  }
  // Sorted by ascending cycles, descending energy.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].cycles, front[i - 1].cycles);
    EXPECT_LT(front[i].energyNj, front[i - 1].energyNj);
  }
}

TEST(Selection, ParetoOfEmptyIsEmpty) {
  EXPECT_TRUE(paretoFront({}).empty());
  EXPECT_FALSE(minEnergyPoint({}).has_value());
}

TEST(Selection, ParetoSinglePoint) {
  const std::vector<DesignPoint> one = {pt(64, 100, 100)};
  EXPECT_EQ(paretoFront(one).size(), 1u);
}

TEST(Selection, TieBreakPrefersFewerCyclesThenSmallerKey) {
  const std::vector<DesignPoint> ties = {pt(128, 5000, 1000),
                                         pt(64, 4000, 1000),
                                         pt(32, 4000, 1000)};
  const auto p = minEnergyPoint(ties);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 32u);
}

TEST(Selection, MinCycleTieBreakPrefersLowerEnergyThenSmallerKey) {
  const std::vector<DesignPoint> ties = {pt(128, 4000, 1200),
                                         pt(64, 4000, 1000),
                                         pt(32, 4000, 1000)};
  const auto p = minCyclePoint(ties);
  ASSERT_TRUE(p.has_value());
  // 128 loses on energy; 64 vs 32 tie fully, the smaller key wins.
  EXPECT_EQ(p->key.cacheBytes, 32u);
}

TEST(Selection, EnergyBoundIsInclusiveAtTheBoundary) {
  // A bound equal to the frugal point's energy keeps it feasible; a
  // bound one ulp-ish below it does not.
  const auto at = minCyclePoint(kPoints, 3000.0);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->key.cacheBytes, 16u);
  EXPECT_FALSE(minCyclePoint(kPoints, 2999.999).has_value());
}

TEST(Selection, CycleBoundJustBelowFastestIsInfeasible) {
  EXPECT_FALSE(minEnergyPoint(kPoints, 3999.999).has_value());
  const auto at = minEnergyPoint(kPoints, 4000.0);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->key.cacheBytes, 256u);
}

TEST(Selection, BestUnderBoundsWithSingleOrNoBound) {
  // Only a cycle bound: an absent energy bound is the default.
  const auto cycOnly = minEnergyPoint(kPoints, 5000.0, std::nullopt);
  ASSERT_TRUE(cycOnly.has_value());
  EXPECT_EQ(cycOnly->key, minEnergyPoint(kPoints, 5000.0)->key);
  // Only an energy bound: min energy among the feasible ones - kPoints'
  // global optimum is also the cheapest, so it survives its own bound.
  const auto enOnly = minEnergyPoint(kPoints, std::nullopt, 3000.0);
  ASSERT_TRUE(enOnly.has_value());
  EXPECT_EQ(enOnly->key.cacheBytes, 16u);
  // No bounds at all: the global energy optimum.
  const auto none = minEnergyPoint(kPoints, std::nullopt, std::nullopt);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->key, minEnergyPoint(kPoints)->key);
}

TEST(Selection, MinEdpTieBreakPrefersLowerEnergyThenSmallerKey) {
  // Equal EDP (2000*1000 == 1000*2000): the lower-energy point wins.
  const std::vector<DesignPoint> ties = {pt(32, 1000, 2000),
                                         pt(64, 2000, 1000)};
  const auto p = minEdpPoint(ties);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 64u);
  // Fully tied points fall back to the smaller key.
  const std::vector<DesignPoint> equal = {pt(128, 1500, 1500),
                                          pt(16, 1500, 1500)};
  const auto q = minEdpPoint(equal);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->key.cacheBytes, 16u);
}

TEST(Selection, ParetoFrontSortedWhenEqualCycles) {
  const std::vector<DesignPoint> pts = {pt(16, 4000, 900),
                                        pt(32, 4000, 800)};
  const auto front = paretoFront(pts);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].key.cacheBytes, 32u);
}

TEST(Selection, MinEdpBalancesBothMetrics) {
  // EDPs: 16: 27e6, 32: 24.5e6, 64: 25e6, 128: 27.3e6, 256: 36e6.
  const auto p = minEdpPoint(kPoints);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.cacheBytes, 32u);
}

TEST(Selection, MinEdpEmpty) {
  EXPECT_FALSE(minEdpPoint({}).has_value());
}

TEST(Selection, AreaBoundedSelection) {
  // A 64-byte cache is ~360 RBE; bounding at 400 excludes 128+.
  const auto p = minEnergyPointWithinArea(kPoints, 400.0);
  ASSERT_TRUE(p.has_value());
  EXPECT_LE(p->key.cacheBytes, 64u);
  // Unbounded-equivalent: a huge budget returns the global optimum.
  const auto all = minEnergyPointWithinArea(kPoints, 1e12);
  EXPECT_EQ(all->key, minEnergyPoint(kPoints)->key);
}

TEST(Selection, AreaBoundTooTightReturnsNothing) {
  EXPECT_FALSE(minEnergyPointWithinArea(kPoints, 1.0).has_value());
}

}  // namespace
}  // namespace memx
