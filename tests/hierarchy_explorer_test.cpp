#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/check/ref_cache_sim.hpp"
#include "memx/core/hierarchy_explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/numeric_io.hpp"

#ifndef MEMX_GOLDEN_DIR
#error "MEMX_GOLDEN_DIR must point at tests/golden"
#endif

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

TEST(HierarchyExplorer, RangesValidate) {
  HierarchyRanges r;
  r.minL1Bytes = 48;
  EXPECT_THROW(r.validate(), ContractViolation);
  r = HierarchyRanges{};
  r.l1LineBytes = 32;
  r.l2LineBytes = 16;
  EXPECT_THROW(r.validate(), ContractViolation);
}

/// evaluateHierarchy at the default models, bus activity measured.
std::vector<HierarchyPoint> evaluate(const Trace& t, const CacheConfig& l1,
                                     const std::vector<CacheConfig>& l2s) {
  return evaluateHierarchy(t, l1, l2s, EnergyParams{},
                           measureAddrActivity(t));
}

TEST(HierarchyExplorer, PointCarriesBothConfigs) {
  const Trace t = generateTrace(sorKernel());
  const auto points = evaluate(t, cfg(64, 8), {cfg(512, 16, 2)});
  ASSERT_EQ(points.size(), 1u);
  const HierarchyPoint& p = points.front();
  EXPECT_EQ(p.label(), "L1:C64L8+L2:C512L16S2");
  EXPECT_GT(p.l1MissRate, 0.0);
  EXPECT_LE(p.globalMissRate, p.l1MissRate);
  EXPECT_GT(p.cycles, 0.0);
  EXPECT_GT(p.energyNj, 0.0);
}

TEST(HierarchyExplorer, RejectsEmptyAndNonInclusiveL2s) {
  const Trace t = generateTrace(sorKernel());
  EXPECT_THROW((void)evaluate(t, cfg(64, 8), {}), ContractViolation);
  EXPECT_THROW((void)evaluate(t, cfg(256, 16), {cfg(512, 16), cfg(64, 16)}),
               ContractViolation);
  EXPECT_THROW((void)evaluate(t, cfg(64, 16), {cfg(256, 8)}),
               ContractViolation);
}

TEST(HierarchyExplorer, MatchesTheOracleHierarchyPerPair) {
  const Trace t = generateTrace(matrixAddKernel(8, 1));
  CacheConfig l1 = cfg(64, 8, 2);
  l1.writePolicy = WritePolicy::WriteBack;
  const std::vector<CacheConfig> l2s = {cfg(256, 16), cfg(512, 16, 2),
                                        cfg(1024, 32, 4)};
  const auto points = evaluate(t, l1, l2s);
  ASSERT_EQ(points.size(), l2s.size());
  for (std::size_t i = 0; i < l2s.size(); ++i) {
    const RefHierarchyStats ref = refSimulateHierarchy(l1, l2s[i], t);
    const HierarchyStats want{ref.l1, ref.l2};
    EXPECT_EQ(points[i].l1MissRate, want.l1.missRate());
    EXPECT_EQ(points[i].globalMissRate, want.globalMissRate());
    EXPECT_EQ(points[i].cycles, hierarchyCycles(want));
  }
}

TEST(HierarchyExplorer, SweepSkipsInvertedPairs) {
  HierarchyRanges r;
  r.minL1Bytes = 64;
  r.maxL1Bytes = 512;
  r.minL2Bytes = 256;
  r.maxL2Bytes = 512;
  const Trace t = generateTrace(matrixAddKernel(8, 1));
  const auto points = exploreHierarchy(t, r);
  for (const HierarchyPoint& p : points) {
    EXPECT_GE(p.l2.sizeBytes, p.l1.sizeBytes);
  }
  // L1 in {64,128,256,512}, L2 in {256,512}: pairs with L2 >= L1.
  EXPECT_EQ(points.size(), 3u + 4u);
}

TEST(HierarchyExplorer, BiggerL2NeverRaisesGlobalMissRate) {
  const Trace t = generateTrace(sorKernel());
  const auto points =
      evaluate(t, cfg(64, 8),
               {cfg(256, 16, 2), cfg(512, 16, 2), cfg(1024, 16, 2),
                cfg(2048, 16, 2)});
  double prev = 1.1;
  for (const HierarchyPoint& p : points) {
    EXPECT_LE(p.globalMissRate, prev + 1e-12);
    prev = p.globalMissRate;
  }
}

TEST(HierarchyExplorer, EnergyGrowsWithIdleCapacity) {
  // A tiny workload that fits L1: growing the L2 only adds cell energy.
  const Trace t = generateTrace(matrixAddKernel(4, 1));
  const auto points = evaluate(t, cfg(256, 8), {cfg(512, 16), cfg(4096, 16)});
  EXPECT_LT(points[0].energyNj, points[1].energyNj);
}

TEST(HierarchyExplorer, L1MissRateIndependentOfL2) {
  const Trace t = generateTrace(dequantKernel());
  const auto points = evaluate(t, cfg(64, 8), {cfg(256, 16), cfg(2048, 16)});
  EXPECT_DOUBLE_EQ(points[0].l1MissRate, points[1].l1MissRate);
}

// Golden: every exploreHierarchy point of every paper benchmark at the
// default HierarchyRanges, pinned bit for bit in
// tests/golden/l2_explore.csv (doubles round-trip through %.17g).
// Regenerate only for an intended model change:
//   MEMX_REGEN_GOLDEN=1 ./build/tests/test_hierarchy_explorer
constexpr const char* kL2ExploreHeader =
    "workload,label,l1_miss_rate,global_miss_rate,cycles,energy_nj";

std::vector<std::vector<std::string>> l2ExploreRows() {
  std::vector<std::vector<std::string>> rows;
  for (const Kernel& k : paperBenchmarks()) {
    for (const HierarchyPoint& p :
         exploreHierarchy(generateTrace(k), HierarchyRanges{})) {
      rows.push_back({k.name, p.label(), formatDouble17(p.l1MissRate),
                      formatDouble17(p.globalMissRate),
                      formatDouble17(p.cycles),
                      formatDouble17(p.energyNj)});
    }
  }
  return rows;
}

std::vector<std::string> splitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

TEST(HierarchyExplorer, RecorderIsBitIdenticalAndCountsTheBanks) {
  const Trace t = generateTrace(sorKernel());
  const HierarchyRanges ranges;
  const auto plain = exploreHierarchy(t, ranges);
  obs::Recorder recorder;
  const auto traced =
      exploreHierarchy(t, ranges, EnergyParams{}, &recorder);
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(traced[i].label(), plain[i].label());
    EXPECT_EQ(traced[i].l1MissRate, plain[i].l1MissRate);
    EXPECT_EQ(traced[i].globalMissRate, plain[i].globalMissRate);
    EXPECT_EQ(traced[i].cycles, plain[i].cycles);
    EXPECT_EQ(traced[i].energyNj, plain[i].energyNj);
  }
  // Default ranges: L1 in {32..256}, L2 in {256..4096}, all pairs
  // inclusive, so four L1 banks of five L2s each.
  EXPECT_EQ(recorder.counterValue("hierarchy.points"), plain.size());
  EXPECT_EQ(recorder.counterValue("hierarchy.accesses"),
            t.size() * plain.size());
  EXPECT_EQ(recorder.counterValue("sweep.groups"), 4u);
  EXPECT_EQ(recorder.counterValue("sweep.groups_multisim"), 4u);
  EXPECT_EQ(recorder.counterValue("sweep.points"), plain.size());
  std::uint64_t l2Accesses = 0;
  for (const std::uint32_t s1 : {32u, 64u, 128u, 256u}) {
    l2Accesses += 5 * filterL1(cfg(s1, 8), t).l2Stream.size();
  }
  EXPECT_EQ(recorder.counterValue("sim.accesses"), l2Accesses);
  EXPECT_EQ(recorder.counterValue("sweep.groups_stackdist"), 0u);
  // One hierarchy.evaluate span per evaluateHierarchy call (one per L1).
  const obs::RunReport report = recorder.report();
  const obs::PhaseStat* evaluate = report.phase("hierarchy.evaluate");
  ASSERT_NE(evaluate, nullptr);
  EXPECT_EQ(evaluate->count, 4u);
}

TEST(HierarchyExplorer, PaperBenchmarksMatchGolden) {
  const std::string path = std::string(MEMX_GOLDEN_DIR) + "/l2_explore.csv";
  const auto current = l2ExploreRows();
  if (std::getenv("MEMX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << kL2ExploreHeader << "\n";
    for (const auto& row : current) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        out << (i == 0 ? "" : ",") << row[i];
      }
      out << "\n";
    }
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with MEMX_REGEN_GOLDEN=1)";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_EQ(line, kL2ExploreHeader);
  std::vector<std::vector<std::string>> golden;
  while (std::getline(in, line)) golden.push_back(splitCsv(line));
  ASSERT_EQ(golden.size(), current.size()) << "point count changed";
  const char* fields[] = {"l1_miss_rate", "global_miss_rate", "cycles",
                          "energy_nj"};
  for (std::size_t r = 0; r < golden.size(); ++r) {
    const auto& want = golden[r];
    const auto& got = current[r];
    ASSERT_EQ(want.size(), 6u) << "malformed golden row " << r;
    ASSERT_EQ(want[0] + "/" + want[1], got[0] + "/" + got[1])
        << "point order changed at row " << r;
    for (std::size_t f = 2; f < 6; ++f) {
      const double w = parseDoubleText(want[f]).value();
      const double g = parseDoubleText(got[f]).value();
      EXPECT_EQ(g, w) << got[0] << "/" << got[1] << " " << fields[f - 2]
                      << " drifted: golden=" << want[f]
                      << " current=" << got[f] << " delta=" << (g - w);
    }
  }
}

}  // namespace
}  // namespace memx
