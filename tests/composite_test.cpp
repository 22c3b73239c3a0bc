#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "memx/core/selection.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/mpeg/composite.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

ExploreOptions tinySweep() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 64;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 8;
  o.ranges.maxAssociativity = 2;
  o.ranges.maxTiling = 2;
  return o;
}

TEST(Composite, RejectsEmptyAndBadTrips) {
  CompositeProgram p("empty");
  EXPECT_THROW(p.explore(Explorer(tinySweep())), ContractViolation);
  EXPECT_THROW(p.add(matrixAddKernel(4, 4), 0), ContractViolation);
}

TEST(Composite, AccessorsWork) {
  CompositeProgram p("two");
  p.add(matrixAddKernel(4, 4), 3);
  p.add(dequantKernel(8), 2);
  EXPECT_EQ(p.kernelCount(), 2u);
  EXPECT_EQ(p.kernel(1).name, "dequant");
  EXPECT_EQ(p.trips(0), 3u);
  EXPECT_THROW((void)p.kernel(5), ContractViolation);
}

TEST(Composite, CombinedMetricsAreTripWeighted) {
  CompositeProgram p("pair");
  p.add(matrixAddKernel(8, 4), 2);
  p.add(dequantKernel(8), 3);
  const Explorer ex(tinySweep());
  const CompositeProgram::Result r = p.explore(ex);

  ASSERT_EQ(r.perKernel.size(), 2u);
  for (const DesignPoint& combined : r.combined.points) {
    const DesignPoint& a = r.perKernel[0].at(combined.key);
    const DesignPoint& b = r.perKernel[1].at(combined.key);
    EXPECT_NEAR(combined.cycles, 2 * a.cycles + 3 * b.cycles, 1e-6);
    EXPECT_NEAR(combined.energyNj, 2 * a.energyNj + 3 * b.energyNj, 1e-6);
    EXPECT_NEAR(combined.missRate,
                (2 * a.missRate + 3 * b.missRate) / 5.0, 1e-12);
    EXPECT_EQ(combined.accesses, 2 * a.accesses + 3 * b.accesses);
  }
}

TEST(Composite, SingleKernelWithUnitTripMatchesPlain) {
  CompositeProgram p("solo");
  p.add(dequantKernel(8), 1);
  const Explorer ex(tinySweep());
  const auto r = p.explore(ex);
  const ExplorationResult direct = ex.explore(dequantKernel(8));
  ASSERT_EQ(r.combined.points.size(), direct.points.size());
  for (std::size_t i = 0; i < direct.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.combined.points[i].cycles, direct.points[i].cycles);
    EXPECT_DOUBLE_EQ(r.combined.points[i].energyNj,
                     direct.points[i].energyNj);
  }
}

TEST(Composite, CombineResultsValidatesShape) {
  EXPECT_THROW(combineResults("x", {}, {}), ContractViolation);
}

TEST(Composite, CombineResultsRejectsMissingOrReorderedKeys) {
  const Explorer ex(tinySweep());
  const ExplorationResult a = ex.explore(matrixAddKernel(8, 4));
  const ExplorationResult b = ex.explore(dequantKernel(8));
  ASSERT_GE(b.points.size(), 3u);
  EXPECT_EQ(combineResults("ok", {a, b}, {1, 1}).points.size(),
            a.points.size());

  const auto rejects = [&](const ExplorationResult& bad,
                           std::size_t position) {
    try {
      (void)combineResults("x", {a, bad}, {1, 1});
      FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("position " + std::to_string(position)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(a.points[position].key.label()), std::string::npos)
          << what;
    }
  };
  ExplorationResult missing = b;
  missing.points.erase(missing.points.begin() + 1);
  rejects(missing, 1);
  ExplorationResult reordered = b;
  std::swap(reordered.points[1], reordered.points[2]);
  rejects(reordered, 1);
  ExplorationResult truncated = b;
  truncated.points.pop_back();
  rejects(truncated, truncated.points.size());
}

TEST(Composite, MpegDecoderAssembles) {
  const CompositeProgram p = mpegDecoder();
  EXPECT_EQ(p.name(), "mpeg-decoder");
  EXPECT_EQ(p.kernelCount(), 9u);
}

TEST(Composite, MpegOptimaExistAndDiffer) {
  // Section-5 headline: the composite min-energy configuration differs
  // from the composite min-cycles configuration.
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 512;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = 8;
  const CompositeProgram p = mpegDecoder();
  const auto r = p.explore(Explorer(o));
  const auto minE = minEnergyPoint(r.combined.points);
  const auto minC = minCyclePoint(r.combined.points);
  ASSERT_TRUE(minE.has_value());
  ASSERT_TRUE(minC.has_value());
  EXPECT_NE(minE->key, minC->key);
  EXPECT_LE(minE->energyNj, minC->energyNj);
  EXPECT_LE(minC->cycles, minE->cycles);
}

}  // namespace
}  // namespace memx
