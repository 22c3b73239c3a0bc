// Sweep-engine speed check: the full Compress sweep on the reference
// per-point path (Explorer::evaluate per sweep key, regenerating the
// trace every time) versus the shared-trace one-pass engine (explore()
// and exploreParallel()), plus an instrumented parallel run with an
// obs::Recorder attached to measure the observability layer's overhead
// (budget: the median of paired, interleaved instrumented/plain ratios
// over samples of >= 200 ms stays <= 5%), plus engine comparisons —
// the same serial shared-trace plan drained with every group on
// SweepBackend::MultiSim versus SweepBackend::StackDist (budget: >= 2x
// points/sec), on the paper's LRU read-only energy metric, with
// write-back + write energy on (exact writebacks via dirty-stack
// accounting), and on FIFO and tree-PLRU sweeps (served by the
// single-pass policy-grid engine); every one of these sweeps must
// resolve to StackDist on its own. Asserts
// every path produces bit-identical DesignPoint vectors, then writes
// BENCH_sweep_speed.json with points/sec of each path and backend, the
// speedup (including fifo_*/plru_* fields for the grid engine), the
// sink overhead, and the full RunReport, and BENCH_sweep_trace.json
// with the chrome://tracing worker timeline. Exits nonzero on any
// mismatch or blown budget.
//
// The determinism check is the point: each path is simply timed
// best-of-kReps (every rep does the same cold-trace work) to shrug off
// scheduler noise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/kernels/benchmarks.hpp"

namespace {

using memx::ConfigKey;
using memx::DesignPoint;
using memx::ExplorationResult;
using memx::Explorer;
using memx::Kernel;

double seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Bit-exact comparison: the shared-trace engine must not perturb a
/// single ULP relative to per-point evaluation.
bool identical(const std::vector<DesignPoint>& a,
               const std::vector<DesignPoint>& b, const char* label) {
  if (a.size() != b.size()) {
    std::cerr << "MISMATCH (" << label << "): " << a.size() << " vs "
              << b.size() << " points\n";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DesignPoint& x = a[i];
    const DesignPoint& y = b[i];
    const bool same =
        x.key == y.key && x.accesses == y.accesses &&
        x.missRate == y.missRate && x.cycles == y.cycles &&
        x.energyNj == y.energyNj;
    if (!same) {
      std::cerr << "MISMATCH (" << label << ") at point " << i << " "
                << x.key.label() << '\n';
      return false;
    }
  }
  return true;
}

/// The serial shared-trace sweep explore() runs, with every group of
/// the plan evaluated on `engine` instead of the resolved one.
std::vector<DesignPoint> exploreOn(const Explorer& grid, const Kernel& kernel,
                                   memx::SweepBackend engine) {
  memx::SweepPlan plan = grid.planSweep(kernel, grid.sweepKeys());
  std::vector<DesignPoint> points(plan.keys.size());
  Explorer::PatternCache patterns;
  for (memx::SweepPlan::Group& group : plan.groups) {
    group.backend = engine;
    const memx::Trace trace = grid.buildGroupTrace(kernel, group, patterns);
    grid.evaluateGroup(group, trace, grid.addrActivityFor(trace), plan.keys,
                       points);
  }
  return points;
}

}  // namespace

int main() {
  const Kernel kernel = memx::compressKernel();
  const Explorer grid(memx::ExploreOptions{});
  const std::vector<ConfigKey> keys = grid.sweepKeys();

  memx::bench::section("Sweep-engine speed (" + kernel.name + ", " +
                       std::to_string(keys.size()) + " points)");

  // Pre-warm the layout memo (untimed): the Section-4.1 conflict-free
  // assignment is computed and memoized identically by every path and is
  // untouched by the sweep engine, so the timings below isolate what the
  // engine changed — trace generation and cache simulation.
  (void)grid.planSweep(kernel, keys);

  // The engine paths finish in ~10 ms, so any single rep is at the mercy
  // of one scheduler blip; best-of-9 reliably lands each timing in a
  // quiet window (the whole bench still runs in ~2 s).
  constexpr int kReps = 9;

  // Reference path: one evaluate() per key, trace regenerated per point.
  double baseSec = 1e30;
  std::vector<DesignPoint> baseline;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<DesignPoint> pts;
    pts.reserve(keys.size());
    for (const ConfigKey& key : keys) {
      pts.push_back(grid.evaluate(kernel, grid.configFor(key), key.tiling));
    }
    baseSec = std::min(baseSec, seconds(t0, std::chrono::steady_clock::now()));
    baseline = std::move(pts);
  }

  // Shared-trace one-pass engine, serial and parallel. Each serial rep
  // runs on a copy of `grid` with warm layouts and generates the group
  // traces from scratch, like the baseline regenerates its per-point
  // traces. The serial timing (on the simulating engine) itself happens
  // in the interleaved engine loop below so the engine speedups pair
  // measurements taken under the same machine conditions. The parallel
  // and instrumented sweeps run on the engine the sweep resolves to.
  double sharedSec = 1e30;
  std::vector<DesignPoint> sharedPts;

  double parSec = 1e30;
  std::vector<DesignPoint> parPts;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ExplorationResult r = memx::exploreParallel(grid, kernel);
    parSec = std::min(parSec, seconds(t0, std::chrono::steady_clock::now()));
    parPts = std::move(r.points);
  }

  // Report-sink overhead: paired samples of the parallel sweep with and
  // without a recorder attached. One sweep takes ~10 ms, where a single
  // scheduler blip is several percent, so a pair interleaves the two
  // sides sweep by sweep (alternating which goes first) until each side
  // has run for at least kMinSampleSec; both sides of a ratio then see
  // the same background load, and the gate reads the median ratio.
  constexpr double kMinSampleSec = 0.2;
  constexpr int kOverheadPairs = 9;
  const auto timeSweep = [&](const Explorer& explorer) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)memx::exploreParallel(explorer, kernel);
    return seconds(t0, std::chrono::steady_clock::now());
  };
  std::vector<double> overheadRatios;
  double plainSampleSec = 1e30;  // shortest plain side of a pair
  double obsSec = 1e30;          // best mean instrumented sweep of a pair
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    // Both sides sweep a fresh copy of `grid`; only the recorder differs.
    const Explorer plain = grid;
    memx::obs::Recorder recorder;
    Explorer observed = grid;
    observed.setRecorder(&recorder);
    double plainT = 0.0;
    double obsT = 0.0;
    int s = 0;
    for (; plainT < kMinSampleSec || obsT < kMinSampleSec; ++s) {
      if (s % 2 == 0) {
        plainT += timeSweep(plain);
        obsT += timeSweep(observed);
      } else {
        obsT += timeSweep(observed);
        plainT += timeSweep(plain);
      }
    }
    plainSampleSec = std::min(plainSampleSec, plainT);
    obsSec = std::min(obsSec, obsT / s);
    overheadRatios.push_back(obsT / plainT);
  }

  // One more instrumented run, untimed, supplies the kept report (it
  // describes exactly one sweep) and the points for the identity check.
  std::vector<DesignPoint> obsPts;
  memx::obs::RunReport report;
  {
    memx::obs::Recorder recorder;
    Explorer observed = grid;
    observed.setRecorder(&recorder);
    obsPts = memx::exploreParallel(observed, kernel).points;
    report = recorder.report();
  }

  // Engine comparisons: the identical serial shared-trace plan drained
  // on the stack-distance engine (this sweep is LRU/write-allocate
  // throughout, so the analytic engine is exact; the property suite
  // pins bit-equality, re-asserted here), once on the paper's read-only
  // metric and once with write-back + write energy on — the sweep the
  // paper's write-energy experiments run. The same comparison runs
  // under FIFO and tree-PLRU replacement, where StackDist means the
  // single-pass PolicyGridProfile engine instead of the Hill-Smith
  // profile. Every one of these sweeps must resolve to StackDist.
  memx::ExploreOptions wbOptions;
  wbOptions.includeWriteEnergy = true;  // writePolicy defaults to WriteBack
  const Explorer wbGrid(wbOptions);
  memx::ExploreOptions fifoOptions;
  fifoOptions.replacement = memx::ReplacementPolicy::FIFO;
  const Explorer fifoGrid(fifoOptions);
  memx::ExploreOptions plruOptions;
  plruOptions.replacement = memx::ReplacementPolicy::TreePLRU;
  const Explorer plruGrid(plruOptions);
  bool resolvesToStackDist = true;
  for (const Explorer* g : {&grid, &wbGrid, &fifoGrid, &plruGrid}) {
    resolvesToStackDist = resolvesToStackDist &&
                          g->resolvedBackend() == memx::SweepBackend::StackDist;
    (void)g->planSweep(kernel, keys);  // warm the layout memo
  }
  if (!resolvesToStackDist) {
    std::cerr << "MISMATCH: an LRU, write-back + write-energy, FIFO or "
                 "PLRU sweep did not resolve to StackDist\n";
  }

  // The eight engine timings are interleaved inside one rep loop: each
  // speedup pairs two ~10 ms measurements taken back to back, so both
  // sides of a ratio see the same background-load conditions, and the
  // budgets check the median of the per-rep ratios — separate loops
  // (and ratios of independently-taken minima) made the speedups
  // seesaw on a busy machine even at best-of-9.
  constexpr memx::SweepBackend kSim = memx::SweepBackend::MultiSim;
  constexpr memx::SweepBackend kStack = memx::SweepBackend::StackDist;
  auto timeExplore = [&](const Explorer& g, memx::SweepBackend engine,
                         double& best, std::vector<DesignPoint>& pts) {
    const Explorer fresh = g;  // warm layouts
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<DesignPoint> r = exploreOn(fresh, kernel, engine);
    const double sec = seconds(t0, std::chrono::steady_clock::now());
    best = std::min(best, sec);
    pts = std::move(r);
    return sec;
  };
  double stackSec = 1e30, wbSimSec = 1e30, wbStackSec = 1e30;
  double fifoSimSec = 1e30, fifoStackSec = 1e30;
  double plruSimSec = 1e30, plruStackSec = 1e30;
  std::vector<DesignPoint> stackPts, wbSimPts, wbStackPts;
  std::vector<DesignPoint> fifoSimPts, fifoStackPts, plruSimPts,
      plruStackPts;
  std::vector<double> stackRatios, wbRatios, fifoRatios, plruRatios;
  for (int rep = 0; rep < kReps; ++rep) {
    const double sharedT = timeExplore(grid, kSim, sharedSec, sharedPts);
    const double stackT = timeExplore(grid, kStack, stackSec, stackPts);
    const double wbSimT = timeExplore(wbGrid, kSim, wbSimSec, wbSimPts);
    const double wbStackT =
        timeExplore(wbGrid, kStack, wbStackSec, wbStackPts);
    const double fifoSimT =
        timeExplore(fifoGrid, kSim, fifoSimSec, fifoSimPts);
    const double fifoStackT =
        timeExplore(fifoGrid, kStack, fifoStackSec, fifoStackPts);
    const double plruSimT =
        timeExplore(plruGrid, kSim, plruSimSec, plruSimPts);
    const double plruStackT =
        timeExplore(plruGrid, kStack, plruStackSec, plruStackPts);
    stackRatios.push_back(sharedT / stackT);
    wbRatios.push_back(wbSimT / wbStackT);
    fifoRatios.push_back(fifoSimT / fifoStackT);
    plruRatios.push_back(plruSimT / plruStackT);
  }

  const bool ok = identical(baseline, sharedPts, "explore") &&
                  identical(baseline, parPts, "exploreParallel") &&
                  identical(baseline, obsPts, "exploreParallel+recorder") &&
                  identical(baseline, stackPts, "explore+stackdist") &&
                  identical(wbSimPts, wbStackPts,
                            "writeback+write-energy stackdist") &&
                  identical(fifoSimPts, fifoStackPts, "fifo policy grid") &&
                  identical(plruSimPts, plruStackPts, "plru policy grid") &&
                  resolvesToStackDist;
  const double n = static_cast<double>(keys.size());
  const double speedup = baseSec / sharedSec;
  auto medianOf = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double backendSpeedup = medianOf(stackRatios);
  const double wbBackendSpeedup = medianOf(wbRatios);
  const double fifoBackendSpeedup = medianOf(fifoRatios);
  const double plruBackendSpeedup = medianOf(plruRatios);
  const double overheadPct = 100.0 * (medianOf(overheadRatios) - 1.0);

  std::printf("per-point baseline : %8.3f s  (%9.1f points/s)\n", baseSec,
              n / baseSec);
  std::printf("shared-trace serial: %8.3f s  (%9.1f points/s)  %.2fx\n",
              sharedSec, n / sharedSec, speedup);
  std::printf("shared-trace para. : %8.3f s  (%9.1f points/s)  %.2fx\n",
              parSec, n / parSec, baseSec / parSec);
  std::printf("para. + report sink: %8.3f s  (%9.1f points/s)  %+.1f%% overhead"
              " (median of %d paired %.2f s samples)\n",
              obsSec, n / obsSec, overheadPct, kOverheadPairs,
              plainSampleSec);
  std::printf("stackdist backend  : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              stackSec, n / stackSec, backendSpeedup);
  std::printf("wb+energy multisim : %8.3f s  (%9.1f points/s)\n", wbSimSec,
              n / wbSimSec);
  std::printf("wb+energy stackdist: %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              wbStackSec, n / wbStackSec, wbBackendSpeedup);
  std::printf("fifo multisim      : %8.3f s  (%9.1f points/s)\n", fifoSimSec,
              n / fifoSimSec);
  std::printf("fifo policy grid   : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              fifoStackSec, n / fifoStackSec, fifoBackendSpeedup);
  std::printf("plru multisim      : %8.3f s  (%9.1f points/s)\n", plruSimSec,
              n / plruSimSec);
  std::printf("plru policy grid   : %8.3f s  (%9.1f points/s)  %.2fx vs multisim\n",
              plruStackSec, n / plruStackSec, plruBackendSpeedup);
  std::printf("bit-identical      : %s\n", ok ? "yes" : "NO");

  // Budgets: the analytic backend must earn its keep on an LRU-only
  // sweep — both on the read-only metric and on the write-back +
  // write-energy sweep it newly serves — and the report sink must cost
  // at most 5% by the median paired ratio.
  const bool fastEnough =
      backendSpeedup >= 2.0 && wbBackendSpeedup >= 2.0 &&
      fifoBackendSpeedup >= 2.0 && plruBackendSpeedup >= 2.0;
  if (backendSpeedup < 2.0) {
    std::cerr << "BUDGET: stackdist backend speedup " << backendSpeedup
              << "x is below the 2x floor\n";
  }
  if (wbBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: write-back stackdist backend speedup "
              << wbBackendSpeedup << "x is below the 2x floor\n";
  }
  if (fifoBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: FIFO policy-grid speedup " << fifoBackendSpeedup
              << "x is below the 2x floor\n";
  }
  if (plruBackendSpeedup < 2.0) {
    std::cerr << "BUDGET: PLRU policy-grid speedup " << plruBackendSpeedup
              << "x is below the 2x floor\n";
  }
  const bool lowOverhead = overheadPct <= 5.0;
  if (!lowOverhead) {
    std::cerr << "BUDGET: instrumentation overhead " << overheadPct
              << "% exceeds the 5% budget\n";
  }

  std::ofstream json("BENCH_sweep_speed.json");
  json << "{\"workload\": \"" << kernel.name << "\", \"points\": "
       << keys.size() << ", \"per_point_seconds\": " << baseSec
       << ", \"shared_seconds\": " << sharedSec
       << ", \"parallel_seconds\": " << parSec
       << ", \"instrumented_seconds\": " << obsSec
       << ", \"per_point_points_per_sec\": " << n / baseSec
       << ", \"shared_points_per_sec\": " << n / sharedSec
       << ", \"parallel_points_per_sec\": " << n / parSec
       << ", \"instrumented_points_per_sec\": " << n / obsSec
       << ", \"stackdist_seconds\": " << stackSec
       << ", \"stackdist_points_per_sec\": " << n / stackSec
       << ", \"writeback_multisim_seconds\": " << wbSimSec
       << ", \"writeback_multisim_points_per_sec\": " << n / wbSimSec
       << ", \"writeback_stackdist_seconds\": " << wbStackSec
       << ", \"writeback_stackdist_points_per_sec\": " << n / wbStackSec
       << ", \"writeback_backend_speedup\": " << wbBackendSpeedup
       << ", \"fifo_multisim_seconds\": " << fifoSimSec
       << ", \"fifo_multisim_points_per_sec\": " << n / fifoSimSec
       << ", \"fifo_stackdist_seconds\": " << fifoStackSec
       << ", \"fifo_stackdist_points_per_sec\": " << n / fifoStackSec
       << ", \"fifo_backend_speedup\": " << fifoBackendSpeedup
       << ", \"plru_multisim_seconds\": " << plruSimSec
       << ", \"plru_multisim_points_per_sec\": " << n / plruSimSec
       << ", \"plru_stackdist_seconds\": " << plruStackSec
       << ", \"plru_stackdist_points_per_sec\": " << n / plruStackSec
       << ", \"plru_backend_speedup\": " << plruBackendSpeedup
       << ", \"speedup\": " << speedup
       << ", \"backend_speedup\": " << backendSpeedup
       << ", \"sink_overhead_pct\": " << overheadPct
       << ", \"sink_overhead_pairs\": " << kOverheadPairs
       << ", \"sink_overhead_min_sample_seconds\": " << plainSampleSec
       << ", \"identical\": " << (ok ? "true" : "false");
  memx::bench::emitRunReport(report, json, "BENCH_sweep_trace.json");
  json << "}\n";

  return (ok && fastEnough && lowOverhead) ? 0 : 1;
}
