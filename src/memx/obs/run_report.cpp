#include "memx/obs/run_report.hpp"

#include <algorithm>
#include <sstream>

#include "memx/util/json_escape.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx::obs {

namespace {

std::string fmtSec(double s) { return fmtFixed(s, 6); }

/// Total length of the union of [start, end) intervals, in seconds.
/// `intervals` is sorted by start on entry.
double unionSec(std::vector<std::pair<std::int64_t, std::int64_t>>& ivs) {
  std::sort(ivs.begin(), ivs.end());
  std::int64_t total = 0;
  std::int64_t curLo = 0;
  std::int64_t curHi = -1;
  bool open = false;
  for (const auto& [lo, hi] : ivs) {
    if (!open || lo > curHi) {
      if (open) total += curHi - curLo;
      curLo = lo;
      curHi = hi;
      open = true;
    } else {
      curHi = std::max(curHi, hi);
    }
  }
  if (open) total += curHi - curLo;
  return static_cast<double>(total) * 1e-9;
}

}  // namespace

const PhaseStat* RunReport::phase(std::string_view name) const noexcept {
  for (const PhaseStat& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::uint64_t RunReport::counter(std::string_view name) const noexcept {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

Table RunReport::phaseTable() const {
  Table t({"phase", "count", "total_s", "min_s", "max_s", "share"});
  for (const PhaseStat& p : phases) {
    const double share = wallSec > 0.0 ? p.totalSec / wallSec : 0.0;
    t.addRow({p.name, std::to_string(p.count), fmtSec(p.totalSec),
              fmtSec(p.minSec), fmtSec(p.maxSec),
              fmtFixed(100.0 * share, 1) + "%"});
  }
  return t;
}

std::string RunReport::summary() const {
  std::ostringstream os;
  os << "wall time: " << fmtSec(wallSec) << " s, " << spans.size()
     << " spans, " << workers.size() << " worker thread(s)\n";
  if (!phases.empty()) os << phaseTable() << '\n';
  if (!counters.empty()) {
    Table t({"counter", "value", "per_second"});
    for (const auto& [name, value] : counters) {
      t.addRow({name, std::to_string(value),
                wallSec > 0.0
                    ? fmtSig3(static_cast<double>(value) / wallSec)
                    : "-"});
    }
    os << t << '\n';
  }
  if (!gauges.empty()) {
    Table t({"gauge", "value"});
    for (const auto& [name, value] : gauges) {
      t.addRow({name, fmtSig3(value)});
    }
    os << t << '\n';
  }
  if (!workers.empty()) {
    Table t({"worker", "spans", "busy_s", "utilization"});
    for (const WorkerStat& w : workers) {
      t.addRow({"tid" + std::to_string(w.tid), std::to_string(w.spans),
                fmtSec(w.busySec), fmtFixed(100.0 * w.utilization, 1) + "%"});
    }
    os << t << '\n';
  }
  return os.str();
}

void RunReport::writeChromeTrace(std::ostream& os) const {
  // Both JSON sinks stream doubles: the classic locale keeps the output
  // RFC-8259 parseable when the daemon runs under a ','-decimal locale.
  const ClassicLocaleGuard locale(os);
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const WorkerStat& w : workers) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << w.tid << ",\"args\":{\"name\":\"worker-" << w.tid << "\"}}";
  }
  for (const SpanRecord& s : spans) {
    sep();
    os << "{\"name\":\"" << jsonEscape(s.name)
       << "\",\"cat\":\"memx\",\"ph\":\"X\",\"ts\":"
       << static_cast<double>(s.startNs) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
       << ",\"pid\":0,\"tid\":" << s.tid << "}";
  }
  os << "\n]}\n";
}

void RunReport::writeJson(std::ostream& os) const {
  const ClassicLocaleGuard locale(os);
  os << "{\"wall_seconds\":" << wallSec << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStat& p = phases[i];
    os << (i ? "," : "") << "{\"name\":\"" << jsonEscape(p.name)
       << "\",\"count\":" << p.count << ",\"total_seconds\":" << p.totalSec
       << ",\"min_seconds\":" << p.minSec
       << ",\"max_seconds\":" << p.maxSec << "}";
  }
  os << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ",") << "\"" << jsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "" : ",") << "\"" << jsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerStat& w = workers[i];
    os << (i ? "," : "") << "{\"tid\":" << w.tid << ",\"spans\":" << w.spans
       << ",\"busy_seconds\":" << w.busySec
       << ",\"utilization\":" << w.utilization << "}";
  }
  os << "]}";
}

/// Defined here (not in recorder.cpp) so report construction logic lives
/// next to the report type; declared in recorder.hpp.
RunReport buildReport(std::vector<SpanRecord> spans,
                      std::map<std::string, std::uint64_t> counters,
                      std::map<std::string, double> gauges) {
  RunReport report;
  report.counters = std::move(counters);
  report.gauges = std::move(gauges);
  report.spans = std::move(spans);
  std::sort(report.spans.begin(), report.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.startNs < b.startNs;
            });

  if (!report.spans.empty()) {
    std::int64_t lo = report.spans.front().startNs;
    std::int64_t hi = lo;
    for (const SpanRecord& s : report.spans) hi = std::max(hi, s.endNs);
    report.wallSec = static_cast<double>(hi - lo) * 1e-9;
  }

  std::map<std::string, PhaseStat> phases;
  std::map<std::uint32_t,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      perWorker;
  for (const SpanRecord& s : report.spans) {
    const double sec = s.durationSec();
    auto [it, inserted] = phases.try_emplace(s.name);
    PhaseStat& p = it->second;
    if (inserted) {
      p.name = s.name;
      p.minSec = sec;
      p.maxSec = sec;
    }
    p.count += 1;
    p.totalSec += sec;
    p.minSec = std::min(p.minSec, sec);
    p.maxSec = std::max(p.maxSec, sec);
    perWorker[s.tid].emplace_back(s.startNs, s.endNs);
  }
  for (auto& [name, stat] : phases) report.phases.push_back(stat);
  std::stable_sort(report.phases.begin(), report.phases.end(),
                   [](const PhaseStat& a, const PhaseStat& b) {
                     return a.totalSec > b.totalSec;
                   });

  for (auto& [tid, intervals] : perWorker) {
    WorkerStat w;
    w.tid = tid;
    w.spans = intervals.size();
    w.busySec = unionSec(intervals);
    w.utilization = report.wallSec > 0.0 ? w.busySec / report.wallSec : 0.0;
    report.workers.push_back(w);
  }
  return report;
}

}  // namespace memx::obs
