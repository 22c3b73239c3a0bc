// search: seeded NSGA-II runs over the joint space of matadd — cache
// geometry x tiling x all four replacement policies x both write
// policies x five optional L2 capacities, 50112 genomes — with a budget
// of 10% of the space, each run on a fresh evaluator. About two thirds
// of a run is NSGA bookkeeping outside fitness evaluation, so this is
// where engine speed-ups barely show and search-loop work does.
//
// Traced rounds attach an obs::Recorder to the search and read the
// spans memx already emits (search.run, search.evaluate_batch, and the
// sweep layers inside evaluation).
#include <algorithm>

#include "ledger.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/search/dominance.hpp"
#include "memx/search/evaluator.hpp"
#include "memx/search/nsga.hpp"

namespace memx::ledger {
namespace {

using search::DesignSpace;
using search::DesignSpaceOptions;
using search::Objectives;

DesignSpaceOptions searchSpace(bool smoke) {
  DesignSpaceOptions s;
  s.ranges.onChipBytes = smoke ? 1024 : 16384;
  s.ranges.minCacheBytes = 16;
  s.ranges.maxCacheBytes = smoke ? 1024 : 16384;
  s.ranges.minLineBytes = 4;
  s.ranges.maxLineBytes = smoke ? 64 : 256;
  s.ranges.maxAssociativity = smoke ? 4 : 8;
  s.ranges.maxTiling = smoke ? 4 : 16;
  s.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                    ReplacementPolicy::Random, ReplacementPolicy::TreePLRU};
  s.writePolicies = {WritePolicy::WriteBack, WritePolicy::WriteThrough};
  s.sweepLayout = false;
  s.defaultOptimizeLayout = false;  // tight layout: one trace per tiling
  if (smoke) {
    s.l2CapacityBytes = {4096};
  } else {
    s.l2CapacityBytes = {32768, 65536, 131072, 524288, 2097152};
  }
  return s;
}

ExploreOptions searchBase(bool smoke) {
  ExploreOptions o;
  o.ranges = searchSpace(smoke).ranges;
  o.optimizeLayout = false;
  return o;
}

search::SearchOptions searchOptions(std::uint64_t seed, std::uint64_t budget,
                                    bool smoke) {
  search::SearchOptions o;
  o.seed = seed;
  o.populationSize = smoke ? 32 : 128;
  o.generations = 1000;  // budget-bound, not generation-bound
  o.maxEvaluations = budget;
  // At full scale the budget is the point; the smoke space is searched
  // to the end so its front is exact.
  o.finishExhaustively = smoke;
  o.space = searchSpace(smoke);
  return o;
}

struct SearchRun {
  std::uint64_t seed = 0;
  std::vector<search::SearchPoint> front;
  std::uint64_t evaluations = 0;
};

std::vector<Objectives> objectivesOf(
    const std::vector<search::SearchPoint>& front) {
  std::vector<Objectives> out;
  out.reserve(front.size());
  for (const search::SearchPoint& p : front) out.push_back(p.objectives);
  return out;
}

bool sameFront(const std::vector<search::SearchPoint>& a,
               const std::vector<search::SearchPoint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const search::SearchPoint& x,
                       const search::SearchPoint& y) {
                      return x.genome == y.genome &&
                             x.objectives == y.objectives;
                    });
}

}  // namespace

Report runSearch(const RunConfig& cfg) {
  Report report;
  const Kernel kernel = matrixAddKernel(6, 1);
  const DesignSpace space{searchSpace(cfg.smoke)};
  const ExploreOptions base = searchBase(cfg.smoke);
  const std::uint64_t budget = cfg.smoke ? space.size() : space.size() / 10;

  obs::Recorder lib;
  std::vector<SearchRun> runs;
  const auto searchOnce = [&](std::uint64_t seed, obs::Recorder* recorder) {
    search::NsgaSearch engine(kernel, DesignSpace{searchSpace(cfg.smoke)},
                              base, searchOptions(seed, budget, cfg.smoke),
                              recorder);
    search::SearchResult r = engine.run();
    return SearchRun{seed, std::move(r.front), r.evaluations};
  };
  const Rounds rounds = runRounds(cfg, [&](bool traced) {
    const std::uint64_t seed = splitmix64((cfg.seed << 32) + runs.size());
    runs.push_back(searchOnce(seed, traced ? &lib : nullptr));
  });

  if (cfg.traced) {
    const SpanTotals t = analyzeSpans(lib.report().spans);
    const double run = t.total("search.run");
    const auto share = [&](const char* span) {
      return run > 0.0 ? 100.0 * t.total(span) / run : 0.0;
    };
    // search.evaluate_pct includes the sweep layers it calls; the
    // layout and loopir shares are the parts of it memx times.
    report.set("search.evaluate_pct", share("search.evaluate_batch"));
    report.set("search.nsga_self_pct", 100.0 - share("search.evaluate_batch"));
    report.set("layout.plan_pct", share("planSweep"));
    report.set("loopir.trace_build_pct", share("trace.build"));
    report.set("bench.attributed_pct",
               t.rootSec > 0.0 ? 100.0 * run / t.rootSec : 0.0);
    reportLibraryCounters(report, lib.report().counters,
                          static_cast<double>(rounds.tracedSec.size()));
    reportTraceOverhead(report, rounds);
  } else {
    const double setup = setupSeconds(
        [&] {
          (void)matrixAddKernel(6, 1);
          (void)DesignSpace{searchSpace(cfg.smoke)};
        },
        cfg.smoke);
    reportEndToEnd(report, setup, rounds.plainSec, "search run",
                   static_cast<double>(rounds.plainSec.size()), "searches",
                   rounds.wallSec);
  }

  // Exhaustive truth on a fresh evaluator, after timing: every run's
  // front must reach 99% of its hypervolume (reference point: the
  // per-objective worst over the space, pushed out by 10%).
  search::SearchEvaluator oracle(kernel, space, base);
  const std::vector<Objectives> all = oracle.evaluate(space.enumerate());
  Objectives ref{0.0, 0.0, 0.0};
  for (const Objectives& o : all) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ref[i] = std::max(ref[i], o[i]);
    }
  }
  for (double& r : ref) r *= 1.1;
  std::vector<Objectives> truth;
  for (const std::size_t i : search::nonDominatedFront(all)) {
    truth.push_back(all[i]);
  }
  const double hvTrue = search::hypervolume(truth, ref);
  double worstRatio = 1.0;
  for (const SearchRun& r : runs) {
    const double ratio =
        search::hypervolume(objectivesOf(r.front), ref) / hvTrue;
    worstRatio = std::min(worstRatio, ratio);
    report.check(ratio >= 0.99, "search: seed " + std::to_string(r.seed) +
                                    " reached hypervolume ratio " +
                                    std::to_string(ratio) + " < 0.99");
    report.check(r.evaluations <= budget,
                 "search: seed " + std::to_string(r.seed) + " spent " +
                     std::to_string(r.evaluations) + " evaluations, budget " +
                     std::to_string(budget));
  }
  report.check(sameFront(searchOnce(runs.front().seed, nullptr).front,
                         runs.front().front),
               "search: repeat run of seed " +
                   std::to_string(runs.front().seed) + " gave another front");

  std::uint64_t digest = kFnvOffset;
  for (const search::SearchPoint& p : runs.front().front) {
    for (const double o : p.objectives) digest = fnvMix(digest, o);
  }
  report.note("space " + std::to_string(space.size()) + " genomes, budget " +
              std::to_string(budget) + ", true front " +
              std::to_string(truth.size()) + " points, worst hypervolume "
              "ratio " + std::to_string(worstRatio) + " over " +
              std::to_string(runs.size()) + " runs");
  report.note("digest " + hex64(digest) + " over the first run's front (" +
              std::to_string(runs.front().front.size()) + " points)");
  return report;
}

}  // namespace memx::ledger
