// The two kernel-sweep workloads.
//
// mpeg-cold is the paper's Section-5 study as a user runs it: the
// nine-kernel MPEG decoder through CompositeProgram::explore on a fresh
// Explorer every round, so each round pays the Section-4.1 layout
// assignment. Layout dominates it; the simulation engines barely show.
//
// policy-sweep is its mirror image: matmul under a tight layout over a
// 16 KiB range, swept under LRU, FIFO, tree-PLRU and Random with
// exploreParallel. Layout costs ~0, the stackdist and cachesim engines
// dominate, and the Random sweep (MultiSim) exposes the parallel
// straggler.
//
// Their traced rounds rebuild the sweep from Explorer's public layer
// calls (planSweep -> buildGroupTrace -> addrActivityFor ->
// evaluateGroup), each inside a ledger-owned span, and must produce
// exactly what explore()/exploreParallel() produced.
#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <random>
#include <thread>

#include "ledger.hpp"
#include "memx/core/explorer.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/mpeg/composite.hpp"
#include "memx/obs/recorder.hpp"

namespace memx::ledger {
namespace {

constexpr int kSampledPoints = 8;

/// Group-phase bookkeeping of the decomposed sweeps of a run.
struct SweepTiming {
  double phaseSec = 0.0;     ///< wall of the group phases
  double capacitySec = 0.0;  ///< phase wall x worker threads
  double busySec = 0.0;      ///< summed per-group times
  double criticalSec = 0.0;  ///< summed longest-group times
};

/// explore() (threads == 1, on the calling thread) or exploreParallel()
/// (threads > 1) rebuilt from the public layer calls, each in a span on
/// `spans`. Parallel workers record a `core.worker` root span; serially
/// the caller's span is the root.
ExplorationResult decomposedSweep(const Explorer& grid, const Kernel& kernel,
                                  unsigned threads, obs::Recorder& spans,
                                  SweepTiming& timing) {
  SweepPlan plan;
  {
    const obs::ScopedSpan span(&spans, "layout.plan");
    plan = grid.planSweep(kernel, grid.sweepKeys());
  }
  ExplorationResult result;
  result.workload = kernel.name;
  result.points.resize(plan.keys.size());

  std::atomic<std::size_t> next{0};
  std::vector<double> groupSec(plan.groups.size(), 0.0);
  const auto drain = [&] {
    Explorer::PatternCache patterns;
    for (;;) {
      const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= plan.groups.size()) return;
      const SweepPlan::Group& group = plan.groups[g];
      const auto t0 = Clock::now();
      Trace trace;
      {
        const obs::ScopedSpan span(&spans, "loopir.trace_build");
        trace = grid.buildGroupTrace(kernel, group, patterns);
      }
      double activity = 0.0;
      {
        const obs::ScopedSpan span(&spans, "cachesim.bus");
        activity = grid.addrActivityFor(trace);
      }
      {
        const obs::ScopedSpan span(&spans,
                                   group.backend == SweepBackend::StackDist
                                       ? "stackdist.evaluate"
                                       : "cachesim.multisim");
        grid.evaluateGroup(group, trace, activity, plan.keys, result.points);
      }
      groupSec[g] = secondsSince(t0);
    }
  };

  threads = std::clamp<unsigned>(
      threads, 1, static_cast<unsigned>(std::max<std::size_t>(
                      1, plan.groups.size())));
  const auto t0 = Clock::now();
  if (threads == 1) {
    drain();
  } else {
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          const obs::ScopedSpan span(&spans, "core.worker");
          drain();
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const double phase = secondsSince(t0);
  timing.phaseSec += phase;
  timing.capacitySec += phase * threads;
  for (const double s : groupSec) timing.busySec += s;
  timing.criticalSec += *std::max_element(groupSec.begin(), groupSec.end());
  return result;
}

/// Per-layer block of a traced sweep run: self-time shares of the
/// ledger's layer spans, group-phase utilization, and the counters memx
/// emitted into `lib`.
void reportSweepLayers(Report& report, const obs::Recorder& spans,
                       const obs::Recorder& lib, const SweepTiming& timing,
                       const Rounds& rounds) {
  const SpanTotals t = analyzeSpans(spans.report().spans);
  const auto share = [&](const char* name) {
    return t.rootSec > 0.0 ? 100.0 * t.self(name) / t.rootSec : 0.0;
  };
  double attributed = 0.0;
  for (const auto& [metric, span] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"layout.plan_pct", "layout.plan"},
           {"loopir.trace_build_pct", "loopir.trace_build"},
           {"cachesim.bus_pct", "cachesim.bus"},
           {"cachesim.multisim_pct", "cachesim.multisim"},
           {"stackdist.evaluate_pct", "stackdist.evaluate"},
           {"mpeg.combine_pct", "mpeg.combine"}}) {
    report.set(metric, share(span));
    attributed += share(span);
  }
  report.set("bench.attributed_pct", attributed);
  report.set("core.worker_utilization",
             timing.capacitySec > 0.0 ? timing.busySec / timing.capacitySec
                                      : 0.0);
  report.set("core.critical_group_pct",
             timing.phaseSec > 0.0
                 ? 100.0 * timing.criticalSec / timing.phaseSec
                 : 0.0);
  reportLibraryCounters(report, lib.report().counters,
                        static_cast<double>(rounds.tracedSec.size()));
  reportTraceOverhead(report, rounds);
}

// --- mpeg-cold ------------------------------------------------------

/// The Section-5 sweep: the paper's setup (Em = 4.95 nJ, Section-4.1
/// layout) over caches up to 512 B, lines up to 16 B, tiling up to 16.
ExploreOptions mpegOptions(bool smoke) {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = smoke ? 64 : 512;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = smoke ? 8 : 16;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = smoke ? 2 : 16;
  o.energy.emNj = 4.95;
  o.optimizeLayout = true;
  return o;
}

bool sameComposite(const CompositeProgram::Result& a,
                   const std::vector<ExplorationResult>& perKernel,
                   const ExplorationResult& combined) {
  if (a.perKernel.size() != perKernel.size()) return false;
  for (std::size_t j = 0; j < perKernel.size(); ++j) {
    if (!identicalPoints(a.perKernel[j].points, perKernel[j].points)) {
      return false;
    }
  }
  return identicalPoints(a.combined.points, combined.points);
}

}  // namespace

Report runMpegCold(const RunConfig& cfg) {
  Report report;
  const ExploreOptions options = mpegOptions(cfg.smoke);
  const CompositeProgram program = mpegDecoder();
  std::vector<std::uint64_t> trips;
  for (std::size_t j = 0; j < program.kernelCount(); ++j) {
    trips.push_back(program.trips(j));
  }
  const std::size_t keyCount = Explorer(options).sweepKeys().size();

  obs::Recorder spans;
  obs::Recorder lib;
  SweepTiming timing;
  CompositeProgram::Result last;
  std::vector<ExplorationResult> tracedPerKernel;
  ExplorationResult tracedCombined;
  double points = 0.0;

  const Rounds rounds = runRounds(cfg, [&](bool traced) {
    if (!traced) {
      const Explorer explorer(options);
      last = program.explore(explorer);
      points += static_cast<double>(keyCount * program.kernelCount());
      report.check(last.combined.points.size() == keyCount,
                   "mpeg-cold: combined sweep has " +
                       std::to_string(last.combined.points.size()) +
                       " points, expected " + std::to_string(keyCount));
      return;
    }
    const obs::ScopedSpan round(&spans, "ledger.round");
    Explorer explorer(options);
    explorer.setRecorder(&lib);
    tracedPerKernel.clear();
    for (std::size_t j = 0; j < program.kernelCount(); ++j) {
      tracedPerKernel.push_back(
          decomposedSweep(explorer, program.kernel(j), 1, spans, timing));
    }
    const obs::ScopedSpan combine(&spans, "mpeg.combine");
    tracedCombined = combineResults(program.name(), tracedPerKernel, trips);
  });

  if (cfg.traced) {
    report.check(sameComposite(last, tracedPerKernel, tracedCombined),
                 "mpeg-cold: decomposed sweep differs from "
                 "CompositeProgram::explore");
    reportSweepLayers(report, spans, lib, timing, rounds);
  } else {
    reportEndToEnd(report,
                   setupSeconds([] { (void)mpegDecoder(); }, cfg.smoke),
                   rounds.plainSec, "round", points, "design points",
                   rounds.wallSec);
  }

  // Sampled points against the per-point reference path (trace
  // regenerated, one CacheSim per point), folded like combineResults.
  const Explorer reference(options);
  const std::vector<ConfigKey> keys = reference.sweepKeys();
  std::mt19937_64 rng(splitmix64(cfg.seed));
  for (int s = 0; s < kSampledPoints; ++s) {
    const ConfigKey key = keys[rng() % keys.size()];
    bool ok = true;
    std::vector<ExplorationResult> single(program.kernelCount());
    for (std::size_t j = 0; j < program.kernelCount(); ++j) {
      const DesignPoint p = reference.evaluate(
          program.kernel(j), reference.configFor(key), key.tiling);
      ok = ok && identicalPoint(p, last.perKernel[j].at(key));
      single[j].points.push_back(p);
    }
    const ExplorationResult folded =
        combineResults(program.name(), single, trips);
    ok = ok && identicalPoint(folded.points.front(), last.combined.at(key));
    report.check(ok, "mpeg-cold: sampled point " + key.label() +
                         " differs from the per-point reference");
  }
  report.note("digest " + hex64(digestPoints(last.combined.points)) +
              " over " + std::to_string(last.combined.points.size()) +
              " combined points");
  return report;
}

namespace {

// --- policy-sweep ---------------------------------------------------

constexpr std::array<ReplacementPolicy, 4> kPolicies = {
    ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
    ReplacementPolicy::TreePLRU, ReplacementPolicy::Random};

/// matmul, tight layout, caches 16 B .. 16 KiB, lines 4 .. 128 B, up to
/// 8 ways and tiling 16: 954 points per policy.
ExploreOptions policyOptions(ReplacementPolicy policy, bool smoke) {
  ExploreOptions o;
  o.ranges.onChipBytes = smoke ? 1024 : 16384;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = smoke ? 1024 : 16384;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = smoke ? 32 : 128;
  o.ranges.maxAssociativity = 8;
  o.ranges.maxTiling = smoke ? 4 : 16;
  o.optimizeLayout = false;
  o.replacement = policy;
  return o;
}

}  // namespace

Report runPolicySweep(const RunConfig& cfg) {
  Report report;
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<ExploreOptions> options;
  for (const ReplacementPolicy p : kPolicies) {
    options.push_back(policyOptions(p, cfg.smoke));
  }
  const Kernel kernel = matMulKernel();
  const std::size_t keyCount = Explorer(options[0]).sweepKeys().size();

  obs::Recorder spans;
  obs::Recorder lib;
  SweepTiming timing;
  std::vector<ExplorationResult> last(kPolicies.size());
  std::vector<ExplorationResult> traced(kPolicies.size());
  double points = 0.0;

  const Rounds rounds = runRounds(cfg, [&](bool tracedRound) {
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      if (tracedRound) {
        Explorer grid(options[p]);
        grid.setRecorder(&lib);
        traced[p] = decomposedSweep(grid, kernel, threads, spans, timing);
        continue;
      }
      last[p] = exploreParallel(kernel, options[p], threads);
      points += static_cast<double>(keyCount);
      report.check(last[p].points.size() == keyCount,
                   "policy-sweep: sweep has " +
                       std::to_string(last[p].points.size()) +
                       " points, expected " + std::to_string(keyCount));
    }
  });

  if (cfg.traced) {
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      report.check(identicalPoints(last[p].points, traced[p].points),
                   "policy-sweep: decomposed sweep differs from "
                   "exploreParallel under policy " +
                       std::to_string(p));
    }
    reportSweepLayers(report, spans, lib, timing, rounds);
  } else {
    reportEndToEnd(report,
                   setupSeconds([] { (void)matMulKernel(); }, cfg.smoke),
                   rounds.plainSec, "four-policy round", points,
                   "design points", rounds.wallSec);
  }

  // Sampled points against the per-point reference path, two per policy.
  std::mt19937_64 rng(splitmix64(cfg.seed));
  const std::vector<ConfigKey> keys = Explorer(options[0]).sweepKeys();
  for (int s = 0; s < kSampledPoints; ++s) {
    const std::size_t p = static_cast<std::size_t>(s) % kPolicies.size();
    const Explorer reference(options[p]);
    const ConfigKey key = keys[rng() % keys.size()];
    const DesignPoint expect =
        reference.evaluate(kernel, reference.configFor(key), key.tiling);
    report.check(identicalPoint(expect, last[p].at(key)),
                 "policy-sweep: sampled point " + key.label() +
                     " differs from the per-point reference under policy " +
                     std::to_string(p));
  }
  std::uint64_t digest = kFnvOffset;
  for (const ExplorationResult& r : last) {
    digest = digestPoints(r.points, digest);
  }
  report.note("digest " + hex64(digest) + " over " +
              std::to_string(kPolicies.size()) + " x " +
              std::to_string(keyCount) + " points; " +
              std::to_string(threads) + " worker threads");
  return report;
}

}  // namespace memx::ledger
