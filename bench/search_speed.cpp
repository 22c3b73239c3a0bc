// Pareto-search speed and quality check on an exhaustively-checkable
// joint space of ~50k genomes (matadd; cache geometry x replacement x
// write policy x optional L2). The NSGA-II engine runs with a fresh
// evaluator and a budget of 10% of the space, then a second fresh
// evaluator enumerates the whole space to compute the true front (via
// the oracle-validated production extractor). Gates, each fatal:
//
//   * evaluations <= 10% of the space (the budget actually binds),
//   * search-front hypervolume >= 99% of the true front's (reference
//     point: per-objective max over the whole space, scaled by 1.1),
//   * the search front contains every point of the exhaustive front,
//   * a repeat run from the same seed returns a bit-identical front.
//
// Writes BENCH_search_speed.json with the space/budget/quality numbers
// and the instrumented run's RunReport, and BENCH_search_trace.json
// with the chrome://tracing timeline. Exits nonzero on any blown gate.
//
// Each phase runs once — the search and the exhaustive sweep both do
// thousands of evaluations, far above scheduler noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <vector>

#include "bench_util.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/search/dominance.hpp"
#include "memx/search/evaluator.hpp"
#include "memx/search/nsga.hpp"

namespace {

using memx::Kernel;
using memx::search::DesignSpace;
using memx::search::DesignSpaceOptions;
using memx::search::Genome;
using memx::search::NsgaSearch;
using memx::search::Objectives;
using memx::search::SearchEvaluator;
using memx::search::SearchOptions;
using memx::search::SearchResult;

double seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The bench space: T 16..16K, L 4..256, S <= 8, B <= 16, all four
/// replacement policies, both write policies, tight layout, and five
/// optional L2 capacities — ~50k valid genomes.
DesignSpaceOptions benchSpace() {
  DesignSpaceOptions s;
  s.ranges.onChipBytes = 16384;
  s.ranges.minCacheBytes = 16;
  s.ranges.maxCacheBytes = 16384;
  s.ranges.minLineBytes = 4;
  s.ranges.maxLineBytes = 256;
  s.ranges.maxAssociativity = 8;
  s.ranges.maxTiling = 16;
  s.replacements = {
      memx::ReplacementPolicy::LRU, memx::ReplacementPolicy::FIFO,
      memx::ReplacementPolicy::Random, memx::ReplacementPolicy::TreePLRU};
  s.writePolicies = {memx::WritePolicy::WriteBack,
                     memx::WritePolicy::WriteThrough};
  s.sweepLayout = false;
  s.defaultOptimizeLayout = false;  // tight layout: one trace per tiling
  s.l2CapacityBytes = {32768, 65536, 131072, 524288, 2097152};
  return s;
}

memx::ExploreOptions benchBase() {
  memx::ExploreOptions o;
  o.ranges = benchSpace().ranges;
  o.optimizeLayout = false;
  return o;
}

SearchOptions benchSearch(std::uint64_t spaceSize) {
  SearchOptions o;
  o.seed = 1;
  o.populationSize = 128;
  o.generations = 1000;       // budget-bound, not generation-bound
  o.maxEvaluations = spaceSize / 10;
  o.finishExhaustively = false;  // the budget is the whole point here
  o.space = benchSpace();
  return o;
}

}  // namespace

int main() {
  const Kernel kernel = memx::matrixAddKernel(6, 1);
  const DesignSpace space{benchSpace()};
  const std::uint64_t spaceSize = space.size();
  const std::uint64_t budget = spaceSize / 10;

  memx::bench::section("Pareto search speed (" + kernel.name + ", " +
                       std::to_string(spaceSize) + "-genome space, budget " +
                       std::to_string(budget) + ")");

  // Search run: fresh evaluator, instrumented.
  memx::obs::Recorder recorder;
  NsgaSearch engine(kernel, DesignSpace{benchSpace()}, benchBase(),
                    benchSearch(spaceSize), &recorder);
  const auto t0 = std::chrono::steady_clock::now();
  const SearchResult result = engine.run();
  const double searchSec = seconds(t0, std::chrono::steady_clock::now());
  const memx::obs::RunReport report = recorder.report();

  // Exhaustive truth: a second fresh evaluator, so the search cannot
  // have warmed any cache the oracle benefits from (or vice versa).
  SearchEvaluator oracle(kernel, space, benchBase());
  const std::vector<Genome> all = space.enumerate();
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<Objectives> objectives = oracle.evaluate(all);
  const double exhaustiveSec = seconds(t1, std::chrono::steady_clock::now());
  const std::vector<std::size_t> trueFront =
      memx::search::nonDominatedFront(objectives);

  // Hypervolume reference: per-objective worst over the whole space,
  // pushed out by 10% so every point contributes volume.
  Objectives ref{0.0, 0.0, 0.0};
  for (const Objectives& o : objectives) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = std::max(ref[i], o[i]);
    }
  }
  for (double& r : ref) r *= 1.1;

  std::vector<Objectives> trueFrontObjs;
  trueFrontObjs.reserve(trueFront.size());
  for (const std::size_t i : trueFront) {
    trueFrontObjs.push_back(objectives[i]);
  }
  std::vector<Objectives> searchFrontObjs;
  searchFrontObjs.reserve(result.front.size());
  for (const auto& p : result.front) {
    searchFrontObjs.push_back(p.objectives);
  }
  const double hvTrue = memx::search::hypervolume(trueFrontObjs, ref);
  const double hvSearch = memx::search::hypervolume(searchFrontObjs, ref);
  const double hvRatio = hvTrue > 0.0 ? hvSearch / hvTrue : 0.0;

  // Front recall: exhaustive-front genomes the search front contains.
  std::set<std::uint64_t> searchKeys;
  for (const auto& p : result.front) searchKeys.insert(space.packed(p.genome));
  std::size_t recovered = 0;
  for (const std::size_t i : trueFront) {
    recovered += searchKeys.count(space.packed(all[i]));
  }

  // Determinism: a second engine from the same seed on another fresh
  // evaluator must return the identical front, bit for bit.
  NsgaSearch repeatEngine(kernel, DesignSpace{benchSpace()}, benchBase(),
                          benchSearch(spaceSize));
  const SearchResult repeat = repeatEngine.run();
  bool deterministic = repeat.front.size() == result.front.size() &&
                       repeat.evaluations == result.evaluations;
  if (deterministic) {
    for (std::size_t i = 0; i < result.front.size(); ++i) {
      if (repeat.front[i].genome != result.front[i].genome ||
          repeat.front[i].objectives != result.front[i].objectives) {
        deterministic = false;
        break;
      }
    }
  }

  const double evalPct =
      100.0 * static_cast<double>(result.evaluations) /
      static_cast<double>(spaceSize);
  std::printf("space              : %8llu genomes (true front %zu points)\n",
              static_cast<unsigned long long>(spaceSize), trueFront.size());
  std::printf("search             : %8.3f s  %llu evaluations (%.1f%% of "
              "space), %llu cache hits, %u generations\n",
              searchSec,
              static_cast<unsigned long long>(result.evaluations), evalPct,
              static_cast<unsigned long long>(result.cacheHits),
              result.generations);
  std::printf("exhaustive sweep   : %8.3f s  (%9.1f points/s)\n",
              exhaustiveSec,
              static_cast<double>(spaceSize) / exhaustiveSec);
  std::printf("front              : %zu of %zu true points found "
              "(%zu points returned)\n",
              recovered, trueFront.size(), result.front.size());
  std::printf("hypervolume        : %.6f of true front (floor 0.99)\n",
              hvRatio);
  std::printf("deterministic      : %s\n", deterministic ? "yes" : "NO");

  const bool budgetOk = result.evaluations <= budget;
  if (!budgetOk) {
    std::cerr << "GATE: " << result.evaluations
              << " evaluations exceed the 10% budget of " << budget << "\n";
  }
  const bool hvOk = hvRatio >= 0.99;
  if (!hvOk) {
    std::cerr << "GATE: hypervolume ratio " << hvRatio
              << " is below the 0.99 floor\n";
  }
  const bool recallOk = recovered == trueFront.size();
  if (!recallOk) {
    std::cerr << "GATE: the search front recovers " << recovered << " of "
              << trueFront.size() << " exhaustive-front points\n";
  }
  if (!deterministic) {
    std::cerr << "GATE: repeat run from the same seed diverged\n";
  }

  const bool gatesOk = budgetOk && hvOk && recallOk && deterministic;
  std::ofstream json("BENCH_search_speed.json");
  json << "{\"workload\": \"" << kernel.name
       << "\", \"space_size\": " << spaceSize << ", \"budget\": " << budget
       << ", \"evaluations\": " << result.evaluations
       << ", \"cache_hits\": " << result.cacheHits
       << ", \"generations\": " << result.generations
       << ", \"search_seconds\": " << searchSec
       << ", \"exhaustive_seconds\": " << exhaustiveSec
       << ", \"exhaustive_points_per_sec\": "
       << static_cast<double>(spaceSize) / exhaustiveSec
       << ", \"true_front_points\": " << trueFront.size()
       << ", \"search_front_points\": " << result.front.size()
       << ", \"recovered_front_points\": " << recovered
       << ", \"hypervolume_true\": " << hvTrue
       << ", \"hypervolume_search\": " << hvSearch
       << ", \"hypervolume_ratio\": " << hvRatio
       << ", \"deterministic\": " << (deterministic ? "true" : "false")
       << ", \"gates_ok\": "
       << (gatesOk ? "true" : "false");
  memx::bench::emitRunReport(report, json, "BENCH_search_trace.json");
  json << "}\n";

  return gatesOk ? 0 : 1;
}
