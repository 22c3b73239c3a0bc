// Aggregated view of one instrumented run.
//
// A RunReport is a snapshot of everything a Recorder collected: completed
// spans, counters, and gauges, folded into per-phase wall-time statistics
// and per-worker utilization. Two sinks render it: a human-readable
// summary (column-aligned tables via memx/report/table) and Chrome
// trace-event JSON that chrome://tracing / Perfetto load directly, which
// turns the parallel explorer's group-queue drain into a visual timeline.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "memx/report/table.hpp"

namespace memx::obs {

/// One completed span: a named [start, end) interval on one thread.
/// Times are nanoseconds since the owning Recorder's epoch.
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;  ///< recorder-assigned dense thread index
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;

  [[nodiscard]] double durationSec() const noexcept {
    return static_cast<double>(endNs - startNs) * 1e-9;
  }
};

/// Wall-time statistics of all spans sharing one name.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double totalSec = 0.0;
  double minSec = 0.0;
  double maxSec = 0.0;
};

/// Busy time of one thread, nested spans counted once (interval union).
struct WorkerStat {
  std::uint32_t tid = 0;
  std::uint64_t spans = 0;
  double busySec = 0.0;
  double utilization = 0.0;  ///< busySec / report wall time
};

/// Everything a run recorded, aggregated. Plain data: safe to copy, hold
/// past the Recorder's lifetime, and serialize from another thread.
struct RunReport {
  /// First span start to last span end (0 when no spans were recorded).
  double wallSec = 0.0;
  std::vector<PhaseStat> phases;    ///< sorted by totalSec, descending
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<WorkerStat> workers;  ///< sorted by tid
  std::vector<SpanRecord> spans;    ///< chronological by startNs

  /// Phase stats by name; nullptr when the phase never ran.
  [[nodiscard]] const PhaseStat* phase(std::string_view name) const noexcept;
  /// Counter value by name (0 when never bumped).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;

  /// Phase table alone (name / count / total / min / max / share).
  [[nodiscard]] Table phaseTable() const;
  /// Full human-readable summary: phases, counters with per-second
  /// rates over the wall time, gauges, and per-worker utilization.
  [[nodiscard]] std::string summary() const;

  /// Chrome trace-event JSON ("X" complete events, ts/dur in µs) plus
  /// thread-name metadata. Load via chrome://tracing or ui.perfetto.dev.
  void writeChromeTrace(std::ostream& os) const;
  /// Machine-readable report (phases/counters/gauges/workers) as one
  /// JSON object, for embedding into BENCH_*.json files.
  void writeJson(std::ostream& os) const;
};

}  // namespace memx::obs
