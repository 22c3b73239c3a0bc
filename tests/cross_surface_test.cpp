// Cross-surface property: every entry point that accepts the same
// ExploreOptions computes the same model. With the tight layout and no
// tiling, a kernel sweep and a fixed-trace sweep over that kernel's
// materialized trace see the same reference stream, so every surface
// must report bit-identical points, energy included:
//
//   Explorer::explore, exploreParallel, exploreTrace over the Trace and
//   over a streamed source, a served explore and a served trace, and a
//   single-level SearchEvaluator (energy and cycles objectives).
//
// Cases cross write energy on/off x leakage 0/nonzero x default/custom
// TimingParams x write-back/write-through x LRU/FIFO/Random, so both
// bank engines run (Random resolves to simulation, LRU and FIFO to the
// analytic profiles). The wire protocol has no timing field, so the
// served surfaces join the default-timing cases only. Each case draws
// its kernel from its seed; a failure prints a MEMX_DIFF-style line
// naming the seed, the options and the surface.
//
// Two-level points have two callers, SearchEvaluator's L2 genes and
// exploreHierarchy; both must return exactly what evaluateHierarchy
// gives for the same group trace, L1 and L2 (LRU/FIFO/Random x
// write-back/write-through, default models: L2 spaces reject write
// energy and leakage).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "memx/core/explorer.hpp"
#include "memx/core/hierarchy_explorer.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/kernel_parser.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/report/result_io.hpp"
#include "memx/search/design_space.hpp"
#include "memx/search/evaluator.hpp"
#include "memx/serve/server.hpp"
#include "memx/trace/din_io.hpp"

namespace memx {
namespace {

/// A seeded 2-deep stencil in the kernel DSL (so a served request can
/// carry it inline): 1-3 word arrays, 2-4 reads at offsets in
/// [-1, +1], some transposed, and one write to a0[i][j].
std::string stencilSource(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  };
  const int n = 8 * pick(1, 2);
  const int arrays = pick(1, 3);
  const std::string extent = "[" + std::to_string(n + 2) + "]";
  std::string src;
  for (int a = 0; a < arrays; ++a) {
    src += "array a" + std::to_string(a) + extent + extent + " : 4\n";
  }
  src += "for i = 1 .. " + std::to_string(n) + "\n";
  src += "  for j = 1 .. " + std::to_string(n) + "\n";
  src += "    a0[i][j] =";
  const auto subscript = [&](const char* var) {
    const int offset = pick(-1, 1);
    return std::string("[") + var +
           (offset == 0 ? "" : offset > 0 ? "+1" : "-1") + "]";
  };
  const int reads = pick(2, 4);
  for (int r = 0; r < reads; ++r) {
    const bool transposed = pick(0, 3) == 0;
    src += std::string(r == 0 ? " " : " + ") + "a" +
           std::to_string(pick(0, arrays - 1)) +
           subscript(transposed ? "j" : "i") +
           subscript(transposed ? "i" : "j");
  }
  return src + "\n";
}

struct Case {
  std::uint64_t seed = 0;
  bool writeEnergy = false;
  bool leakage = false;
  bool customTiming = false;
  WritePolicy writePolicy = WritePolicy::WriteBack;
  ReplacementPolicy replacement = ReplacementPolicy::LRU;

  [[nodiscard]] std::string repro(const std::string& surface) const {
    return "MEMX_DIFF repro: seed=" + std::to_string(seed) +
           " surface=" + surface +
           " wenergy=" + std::to_string(writeEnergy ? 1 : 0) +
           " leak=" + std::to_string(leakage ? 1 : 0) +
           " timing=" + (customTiming ? "custom" : "default") +
           " wp=" + toString(writePolicy) +
           " repl=" + toString(replacement);
  }
};

ExploreOptions optionsFor(const Case& c) {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 256;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 4;
  o.ranges.sweepTiling = false;
  o.optimizeLayout = false;
  o.includeWriteEnergy = c.writeEnergy;
  o.energy.leakagePjPerBytePerCycle = c.leakage ? 0.0375 : 0.0;
  if (c.customTiming) {
    o.timing.hitCyclesByAssoc = {1.5, 1.75, 2.0, 2.25};
    o.timing.missCyclesByLine = {30, 33, 37, 45, 60, 90, 150};
  }
  o.writePolicy = c.writePolicy;
  o.replacement = c.replacement;
  return o;
}

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Bit-identical point lists (workload names may differ by surface).
void expectSamePoints(const std::vector<DesignPoint>& want,
                      const std::vector<DesignPoint>& got,
                      const std::string& repro) {
  ASSERT_EQ(got.size(), want.size()) << repro;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const DesignPoint& w = want[i];
    const DesignPoint& g = got[i];
    const std::string where = repro + " key=" + w.key.label();
    ASSERT_EQ(g.key, w.key) << where;
    EXPECT_EQ(g.accesses, w.accesses) << where;
    EXPECT_EQ(bitsOf(g.missRate), bitsOf(w.missRate)) << where;
    EXPECT_EQ(bitsOf(g.cycles), bitsOf(w.cycles)) << where;
    EXPECT_EQ(bitsOf(g.energyNj), bitsOf(w.energyNj))
        << where << " energy " << g.energyNj << " vs " << w.energyNj;
  }
}

serve::JsonValue servedOptions(const ExploreOptions& o) {
  serve::JsonValue::Object ranges;
  ranges.emplace("min_cache_bytes", o.ranges.minCacheBytes);
  ranges.emplace("max_cache_bytes", o.ranges.maxCacheBytes);
  ranges.emplace("min_line_bytes", o.ranges.minLineBytes);
  ranges.emplace("max_line_bytes", o.ranges.maxLineBytes);
  ranges.emplace("max_associativity", o.ranges.maxAssociativity);
  ranges.emplace("sweep_tiling", o.ranges.sweepTiling);
  serve::JsonValue::Object options;
  options.emplace("ranges", std::move(ranges));
  options.emplace("optimize_layout", o.optimizeLayout);
  options.emplace("write_energy", o.includeWriteEnergy);
  options.emplace("leakage_pj", o.energy.leakagePjPerBytePerCycle);
  options.emplace("write_policy", toString(o.writePolicy));
  // The wire spells Random with a capital, unlike toString().
  options.emplace("replacement", o.replacement == ReplacementPolicy::Random
                                     ? std::string("Random")
                                     : toString(o.replacement));
  return serve::JsonValue(std::move(options));
}

/// The points of a served sweep, parsed back from its CSV.
std::vector<DesignPoint> served(serve::Server& server,
                                serve::JsonValue::Object request,
                                const std::string& repro) {
  request.emplace("include_points", true);
  const serve::JsonValue response = serve::JsonValue::parse(
      server.handleLine(serve::JsonValue(std::move(request)).dump()));
  const auto& fields = response.asObject();
  if (!fields.at("ok").asBool()) {
    ADD_FAILURE() << repro << ": " << response.dump();
    return {};
  }
  return fromCsvString(fields.at("csv").asString()).points;
}

void checkCase(const Case& c) {
  const std::string source = stencilSource(c.seed);
  const Kernel kernel = parseKernel(source, "xs" + std::to_string(c.seed));
  const ExploreOptions options = optionsFor(c);
  const ExplorationResult reference = Explorer(options).explore(kernel);
  ASSERT_FALSE(reference.points.empty()) << c.repro("explore");

  expectSamePoints(reference.points,
                   exploreParallel(kernel, options, 2).points,
                   c.repro("exploreParallel"));

  const Trace trace = generateTrace(kernel, sequentialLayout(kernel));
  expectSamePoints(reference.points,
                   exploreTrace("xs", trace, options).points,
                   c.repro("exploreTrace(Trace)"));
  VectorTraceSource stream(trace);
  expectSamePoints(reference.points,
                   exploreTrace("xs", stream, options, {}, 97).points,
                   c.repro("exploreTrace(TraceSource)"));

  search::DesignSpaceOptions spaceOptions;
  spaceOptions.ranges = options.ranges;
  spaceOptions.replacements = {options.replacement};
  spaceOptions.writePolicies = {options.writePolicy};
  spaceOptions.defaultOptimizeLayout = options.optimizeLayout;
  const search::DesignSpace space(spaceOptions);
  search::SearchEvaluator evaluator(kernel, space, options);
  const std::vector<search::Genome> genomes = space.enumerate();
  const std::vector<search::Objectives> objectives =
      evaluator.evaluate(genomes);
  ASSERT_EQ(genomes.size(), reference.points.size()) << c.repro("search");
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const ConfigKey key = space.decode(genomes[i]).key;
    const DesignPoint& want = reference.at(key);
    const std::string where = c.repro("search") + " key=" + key.label();
    EXPECT_EQ(bitsOf(objectives[i][0]), bitsOf(want.energyNj)) << where;
    EXPECT_EQ(bitsOf(objectives[i][1]), bitsOf(want.cycles)) << where;
  }

  if (c.customTiming) return;  // not expressible on the wire
  serve::Server server;
  serve::JsonValue::Object explore;
  explore.emplace("op", "explore");
  explore.emplace("kernel_src", source);
  explore.emplace("options", servedOptions(options));
  expectSamePoints(reference.points,
                   served(server, std::move(explore), c.repro("serve explore")),
                   c.repro("serve explore"));

  const std::string path = testing::TempDir() + "cross_surface_" +
                           std::to_string(c.seed) + ".din";
  {
    std::ofstream file(path);
    writeDin(file, trace);
  }
  serve::JsonValue::Object traceRequest;
  traceRequest.emplace("op", "trace");
  traceRequest.emplace("trace", path);
  traceRequest.emplace("options", servedOptions(options));
  expectSamePoints(
      reference.points,
      served(server, std::move(traceRequest), c.repro("serve trace")),
      c.repro("serve trace"));
  std::remove(path.c_str());
}

TEST(CrossSurface, EverySurfaceFoldsTheSameModel) {
  std::uint64_t seed = 1;
  for (const bool writeEnergy : {false, true}) {
    for (const bool leakage : {false, true}) {
      for (const bool customTiming : {false, true}) {
        for (const WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
          for (const ReplacementPolicy rp :
               {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                ReplacementPolicy::Random}) {
            checkCase(Case{seed++, writeEnergy, leakage, customTiming, wp,
                           rp});
          }
        }
      }
    }
  }
}

void checkL2Case(const Case& c) {
  const Kernel kernel =
      parseKernel(stencilSource(c.seed), "xs" + std::to_string(c.seed));
  const ExploreOptions options = optionsFor(c);
  search::DesignSpaceOptions spaceOptions;
  spaceOptions.ranges = options.ranges;
  spaceOptions.replacements = {options.replacement};
  spaceOptions.writePolicies = {options.writePolicy};
  spaceOptions.defaultOptimizeLayout = options.optimizeLayout;
  spaceOptions.l2CapacityBytes = {512};
  const search::DesignSpace space(spaceOptions);
  search::SearchEvaluator evaluator(kernel, space, options);
  const std::vector<search::Genome> genomes = space.enumerate();
  const std::vector<search::Objectives> objectives =
      evaluator.evaluate(genomes);

  // Tight layout, no tiling: every genome shares this one group trace.
  const Trace trace = generateTrace(kernel, sequentialLayout(kernel));
  const Explorer explorer(options);
  const double addBs = explorer.addrActivityFor(trace);
  std::map<ConfigKey, search::Objectives> twoLevel;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const search::JointPoint decoded = space.decode(genomes[i]);
    if (!decoded.l2) continue;
    const HierarchyPoint want =
        evaluateHierarchy(trace, explorer.configFor(decoded.key),
                          {*decoded.l2}, options.energy, HierarchyTiming{},
                          addBs)
            .front();
    const std::string where =
        c.repro("search L2") + " key=" + decoded.key.label();
    EXPECT_EQ(bitsOf(objectives[i][0]), bitsOf(want.energyNj)) << where;
    EXPECT_EQ(bitsOf(objectives[i][1]), bitsOf(want.cycles)) << where;
    twoLevel.emplace(decoded.key, objectives[i]);
  }
  ASSERT_FALSE(twoLevel.empty()) << c.repro("search L2");

  // exploreHierarchy's pairs are direct-mapped L8 L1s over a 2-way L16
  // L2 at the CacheConfig default policies — the search companion of
  // the same L1 under LRU write-back.
  if (c.replacement != ReplacementPolicy::LRU ||
      c.writePolicy != WritePolicy::WriteBack) {
    return;
  }
  HierarchyRanges ranges;
  ranges.minL1Bytes = 16;
  ranges.maxL1Bytes = 256;
  ranges.minL2Bytes = 512;
  ranges.maxL2Bytes = 512;
  const std::vector<HierarchyPoint> swept = exploreHierarchy(trace, ranges);
  ASSERT_EQ(swept.size(), 5u) << c.repro("exploreHierarchy");
  for (const HierarchyPoint& p : swept) {
    const ConfigKey key{p.l1.sizeBytes, p.l1.lineBytes, 1, 1};
    const std::string where =
        c.repro("exploreHierarchy") + " key=" + key.label();
    ASSERT_EQ(twoLevel.count(key), 1u) << where;
    EXPECT_EQ(bitsOf(twoLevel[key][0]), bitsOf(p.energyNj)) << where;
    EXPECT_EQ(bitsOf(twoLevel[key][1]), bitsOf(p.cycles)) << where;
  }
}

TEST(CrossSurface, TwoLevelCallersFoldTheSamePoints) {
  std::uint64_t seed = 101;
  for (const WritePolicy wp :
       {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
    for (const ReplacementPolicy rp :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random}) {
      checkL2Case(Case{seed++, false, false, false, wp, rp});
    }
  }
}

}  // namespace
}  // namespace memx
