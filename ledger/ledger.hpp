// Shared pieces of the memx performance ledger: run settings, the
// report every workload fills, timing and statistics helpers, and the
// span accounting behind the traced (per-layer) runs.
//
// The ledger times memx from the outside: it calls the library's public
// functions and wraps them in its own obs::ScopedSpans. Nothing here
// adds instrumentation to the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "memx/core/design_point.hpp"
#include "memx/obs/run_report.hpp"

namespace memx::ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One run's settings, from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< closed-loop measuring window
  bool traced = false;    ///< per-layer run instead of the end-to-end one
  bool smoke = false;     ///< tiny inputs, for the self-test
};

/// A metric the ledger prints: name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every untraced run prints exactly these, every traced run exactly
/// kPerLayer (zero where the workload never enters that layer).
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run measured and checked.
struct Report {
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> notes;        ///< human-only lines
  std::uint64_t attempted = 0;  ///< operations + correctness checks
  std::uint64_t failed = 0;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Count one operation or correctness check; a failure is also
  /// printed to stderr naming `what`. Returns `ok`.
  bool check(bool ok, const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Rounds of one run, split by kind. An untraced run only has plain
/// rounds; a traced run alternates traced / plain, starting traced.
struct Rounds {
  std::vector<double> plainSec;
  std::vector<double> tracedSec;
  double wallSec = 0.0;
};

/// Call `round(traced)` back to back until `cfg.seconds` have passed,
/// at least once (a traced run: at least one round of each kind).
template <typename Round>
Rounds runRounds(const RunConfig& cfg, Round&& round) {
  Rounds out;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = cfg.traced && i % 2 == 0;
    const auto t0 = Clock::now();
    round(traced);
    (traced ? out.tracedSec : out.plainSec).push_back(secondsSince(t0));
    const bool bothKinds = !cfg.traced || i >= 1;
    if (bothKinds && secondsSince(start) >= cfg.seconds) break;
  }
  out.wallSec = secondsSince(start);
  return out;
}

[[nodiscard]] double median(std::vector<double> v);
/// First quartile, median, third quartile as Python's
/// statistics.quantiles(v, n=4) computes them (exclusive method); all
/// three are the median when `v` has fewer than two values.
[[nodiscard]] std::vector<double> quartiles(std::vector<double> v);

/// Median seconds per call of `build`, the set-up a workload's timed
/// loop reuses. Each sample times a batch of calls; `smoke` takes few,
/// short samples.
[[nodiscard]] double setupSeconds(const std::function<void()>& build,
                                  bool smoke);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMiB();

/// Fill the end-to-end block: setup_s, peak_rss_mib, the median of
/// `latencySec` (one sample per operation) and `work / wallSec` as
/// throughput. Notes name the sample counts, and the p95 where at least
/// ten samples lie beyond it.
void reportEndToEnd(Report& report, double setupSec,
                    const std::vector<double>& latencySec,
                    const std::string& opName, double work,
                    const std::string& workUnit, double wallSec);

/// bench.trace_overhead_pct: median traced round against median plain
/// round.
void reportTraceOverhead(Report& report, const Rounds& rounds);

/// Per-name totals of a set of spans. Spans nest per thread; a span's
/// self time is its duration minus that of its direct children.
struct SpanTotals {
  std::map<std::string, double> selfSec;
  std::map<std::string, double> totalSec;
  double rootSec = 0.0;  ///< summed duration of spans with no parent

  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;
};
[[nodiscard]] SpanTotals analyzeSpans(std::vector<obs::SpanRecord> spans);

/// Set the per-layer metrics derived from the counters memx itself
/// emits into an attached obs::Recorder, as per-operation averages.
void reportLibraryCounters(Report& report,
                           const std::map<std::string, std::uint64_t>& c,
                           double ops);

/// Bit-for-bit equality of two point vectors (doubles compared by their
/// bit patterns).
[[nodiscard]] bool identicalPoints(const std::vector<DesignPoint>& a,
                                   const std::vector<DesignPoint>& b);
[[nodiscard]] bool identicalPoint(const DesignPoint& a, const DesignPoint& b);

/// FNV-1a digests: informational, they change with any simulated
/// statistic. Values are mixed as 64-bit words (doubles by bit pattern).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t word);
[[nodiscard]] std::uint64_t fnvMix(std::uint64_t hash, double value);
[[nodiscard]] std::uint64_t digestPoints(
    const std::vector<DesignPoint>& points, std::uint64_t hash = kFnvOffset);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// SplitMix64: derives independent per-operation seeds from the run seed.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

// The five workloads.
[[nodiscard]] Report runMpegCold(const RunConfig& cfg);
[[nodiscard]] Report runPolicySweep(const RunConfig& cfg);
[[nodiscard]] Report runSearch(const RunConfig& cfg);
[[nodiscard]] Report runServeMix(const RunConfig& cfg);
[[nodiscard]] Report runTraceStream(const RunConfig& cfg);

}  // namespace memx::ledger
