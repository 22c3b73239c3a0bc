#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "ledger.hpp"

namespace memx::ledger {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Layer times are shares of the traced operations' busy time (`%`), so
// a layer a workload never enters reads 0 rather than a zero duration.
const std::vector<MetricSpec> kPerLayer = {
    {"layout.plan_pct", "%"},
    {"layout.assignments", "count/op"},
    {"layout.memo_hit_ratio", "ratio"},
    {"loopir.trace_build_pct", "%"},
    {"loopir.trace_refs", "count/op"},
    {"loopir.pattern_hit_ratio", "ratio"},
    {"cachesim.bus_pct", "%"},
    {"cachesim.multisim_pct", "%"},
    {"cachesim.sim_accesses", "count/op"},
    {"stackdist.evaluate_pct", "%"},
    {"stackdist.passes", "count/op"},
    {"stackdist.grid_cells", "count/op"},
    {"stackdist.accesses", "count/op"},
    {"core.worker_utilization", "ratio"},
    {"core.critical_group_pct", "%"},
    {"mpeg.combine_pct", "%"},
    {"search.nsga_self_pct", "%"},
    {"search.evaluate_pct", "%"},
    {"search.evals", "count/op"},
    {"search.cache_hit_ratio", "ratio"},
    {"serve.encode_pct", "%"},
    {"serve.handler_pct", "%"},
    {"serve.reselect_pct", "%"},
    {"serve.store_hit_ratio", "ratio"},
    {"serve.subset_hit_ratio", "ratio"},
    {"serve.response_bytes", "B/op"},
    {"trace.decode_pct", "%"},
    {"trace.bytes_read", "B/op"},
    {"trace.refs_decoded", "count/op"},
    {"bench.attributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
  return ok;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return std::vector<double>(3, median(v));
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  const long long n = 4;
  const long long m = ld + 1;
  std::vector<double> out;
  for (long long i = 1; i < n; ++i) {
    long long j = i * m / n;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    out.push_back((v[j - 1] * static_cast<double>(n - delta) +
                   v[j] * static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

double setupSeconds(const std::function<void()>& build, bool smoke) {
  // Set-up steps take microseconds, and on a shared machine their cost
  // drifts with neighbouring load over tens of milliseconds. Samples of
  // 40 ms or more, spread over a second, average that drift out.
  const double kMinSampleSec = smoke ? 1e-3 : 40e-3;
  const int kSamples = smoke ? 5 : 25;
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) build();
    if (secondsSince(t0) >= kMinSampleSec || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) build();
    samples.push_back(secondsSince(t0) / static_cast<double>(batch));
  }
  return median(samples);
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

/// Linear-interpolated percentile, `p` in [0, 100], of a non-empty `v`.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

void reportEndToEnd(Report& report, double setupSec,
                    const std::vector<double>& latencySec,
                    const std::string& opName, double work,
                    const std::string& workUnit, double wallSec) {
  report.set("setup_s", setupSec);
  report.set("peak_rss_mib", peakRssMiB());
  report.set("latency_p50_ms", 1e3 * median(latencySec));
  report.set("throughput_per_s", work / wallSec);
  char line[256];
  std::snprintf(line, sizeof line,
                "latency p50 over %zu %s samples; throughput = %.0f %s in "
                "%.3f s",
                latencySec.size(), opName.c_str(), work, workUnit.c_str(),
                wallSec);
  report.note(line);
  // A tail percentile is reported only where at least ten samples lie
  // beyond it.
  if (latencySec.size() >= 200) {
    std::snprintf(line, sizeof line, "latency p95 %.3f ms (%zu samples beyond)",
                  1e3 * percentile(latencySec, 95.0), latencySec.size() / 20);
    report.note(line);
  }
}

void reportTraceOverhead(Report& report, const Rounds& rounds) {
  const double plain = median(rounds.plainSec);
  const double traced = median(rounds.tracedSec);
  report.set("bench.trace_overhead_pct",
             plain > 0.0 ? 100.0 * (traced / plain - 1.0) : 0.0);
  char line[160];
  std::snprintf(line, sizeof line,
                "trace overhead: median traced round %.4f s (%zu) vs plain "
                "%.4f s (%zu)",
                traced, rounds.tracedSec.size(), plain,
                rounds.plainSec.size());
  report.note(line);
}

double SpanTotals::self(const std::string& name) const {
  const auto it = selfSec.find(name);
  return it == selfSec.end() ? 0.0 : it->second;
}

double SpanTotals::total(const std::string& name) const {
  const auto it = totalSec.find(name);
  return it == totalSec.end() ? 0.0 : it->second;
}

SpanTotals analyzeSpans(std::vector<obs::SpanRecord> spans) {
  // Parents sort before the children they contain: by thread, start,
  // then longest first.
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              return a.endNs > b.endNs;
            });
  SpanTotals out;
  std::vector<double> childSec(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    while (!stack.empty() && (spans[stack.back()].tid != s.tid ||
                              spans[stack.back()].endNs <= s.startNs)) {
      stack.pop_back();
    }
    if (stack.empty()) {
      out.rootSec += s.durationSec();
    } else {
      childSec[stack.back()] += s.durationSec();
    }
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.totalSec[spans[i].name] += spans[i].durationSec();
    out.selfSec[spans[i].name] += spans[i].durationSec() - childSec[i];
  }
  return out;
}

void reportLibraryCounters(Report& report,
                           const std::map<std::string, std::uint64_t>& c,
                           double ops) {
  const auto get = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const auto perOp = [&](const char* metric, const char* counter) {
    report.set(metric, ops > 0.0 ? get(counter) / ops : 0.0);
  };
  perOp("layout.assignments", "layout.cache_miss");
  report.set("layout.memo_hit_ratio",
             ratio(get("layout.cache_hit"),
                   get("layout.cache_hit") + get("layout.cache_miss")));
  perOp("loopir.trace_refs", "trace.accesses");
  report.set("loopir.pattern_hit_ratio",
             ratio(get("pattern.cache_hit"),
                   get("pattern.cache_hit") + get("pattern.cache_miss")));
  perOp("cachesim.sim_accesses", "sim.accesses");
  perOp("stackdist.passes", "stackdist.passes");
  perOp("stackdist.grid_cells", "stackdist.grid_cells");
  perOp("stackdist.accesses", "stackdist.accesses");
  perOp("search.evals", "search.evals");
  report.set("search.cache_hit_ratio",
             ratio(get("search.cache_hits"),
                   get("search.cache_hits") + get("search.evals")));
  perOp("trace.bytes_read", "trace.bytes_read");
  perOp("trace.refs_decoded", "trace.refs_decoded");
}

namespace {

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

bool identicalPoint(const DesignPoint& a, const DesignPoint& b) {
  return a.key == b.key && a.accesses == b.accesses &&
         bitsOf(a.missRate) == bitsOf(b.missRate) &&
         bitsOf(a.cycles) == bitsOf(b.cycles) &&
         bitsOf(a.energyNj) == bitsOf(b.energyNj);
}

bool identicalPoints(const std::vector<DesignPoint>& a,
                     const std::vector<DesignPoint>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), identicalPoint);
}

std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnvMix(std::uint64_t hash, double value) {
  return fnvMix(hash, bitsOf(value));
}

std::uint64_t digestPoints(const std::vector<DesignPoint>& points,
                           std::uint64_t hash) {
  for (const DesignPoint& p : points) {
    hash = fnvMix(hash, std::uint64_t{p.key.cacheBytes});
    hash = fnvMix(hash, std::uint64_t{p.key.lineBytes});
    hash = fnvMix(hash, std::uint64_t{p.key.associativity});
    hash = fnvMix(hash, std::uint64_t{p.key.tiling});
    hash = fnvMix(hash, p.accesses);
    hash = fnvMix(hash, p.missRate);
    hash = fnvMix(hash, p.cycles);
    hash = fnvMix(hash, p.energyNj);
  }
  return hash;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace memx::ledger
