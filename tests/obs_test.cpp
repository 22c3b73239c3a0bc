#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "memx/core/parallel_explorer.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/obs/run_report.hpp"

namespace memx {
namespace {

// --- Minimal JSON validator -------------------------------------------
//
// Enough of RFC 8259 to prove the exported trace-event and report files
// are well-formed: objects, arrays, strings with escapes, numbers,
// literals. Returns false instead of throwing so tests can EXPECT on it.

class JsonChecker {
public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == text_.size();
  }

private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool validJson(const std::string& s) { return JsonChecker(s).valid(); }

TEST(JsonChecker, SanityOnHandWrittenCases) {
  EXPECT_TRUE(validJson(R"({"a":[1,2.5,-3e4],"b":"x\n\"y\"","c":null})"));
  EXPECT_FALSE(validJson(R"({"a":1)"));
  EXPECT_FALSE(validJson(R"(["unterminated)"));
  EXPECT_FALSE(validJson("{\"a\":\"\x01\"}"));
  EXPECT_FALSE(validJson(R"({"a":1}trailing)"));
}

// --- Counters ----------------------------------------------------------

TEST(Recorder, CounterConcurrentBumpsAreLossless) {
  obs::Recorder recorder;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kBumps = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder]() {
      // Half the bumps go through a cached handle (the hot-loop idiom),
      // half re-resolve the name, exercising the registry lock.
      obs::Counter& cached = recorder.counter("shared");
      for (std::uint64_t i = 0; i < kBumps / 2; ++i) cached.add();
      for (std::uint64_t i = 0; i < kBumps / 2; ++i) {
        recorder.counter("shared").add();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.counterValue("shared"), kThreads * kBumps);
  EXPECT_EQ(recorder.counterValue("never_bumped"), 0u);
}

TEST(Recorder, CountersAreIndependentAndSupportDeltas) {
  obs::Recorder recorder;
  recorder.counter("a").add(3);
  recorder.counter("b").add();
  recorder.counter("a").add(4);
  EXPECT_EQ(recorder.counterValue("a"), 7u);
  EXPECT_EQ(recorder.counterValue("b"), 1u);
  const obs::RunReport report = recorder.report();
  EXPECT_EQ(report.counter("a"), 7u);
  EXPECT_EQ(report.counter("missing"), 0u);
}

// --- Spans and report aggregation --------------------------------------

TEST(Recorder, SpanNestingAggregatesPerPhase) {
  obs::Recorder recorder;
  {
    const obs::ScopedSpan outer(&recorder, "outer");
    for (int i = 0; i < 3; ++i) {
      const obs::ScopedSpan inner(&recorder, "inner");
    }
  }
  const obs::RunReport report = recorder.report();
  ASSERT_EQ(report.spans.size(), 4u);

  const obs::PhaseStat* outer = report.phase("outer");
  const obs::PhaseStat* inner = report.phase("inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(report.phase("absent"), nullptr);

  // The outer span contains all inner spans.
  EXPECT_GE(outer->totalSec, inner->totalSec);
  EXPECT_LE(inner->minSec, inner->maxSec);
  EXPECT_GE(report.wallSec, outer->totalSec);

  // One thread; its busy time is the interval union, so nesting must
  // not double-count: busy == outer's span, within clock resolution.
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].spans, 4u);
  EXPECT_LE(report.workers[0].busySec, report.wallSec + 1e-9);
  EXPECT_NEAR(report.workers[0].busySec, outer->totalSec, 1e-9);
}

TEST(Recorder, ThreadsGetDenseStableIndices) {
  obs::Recorder recorder;
  const std::uint32_t main1 = recorder.threadIndex();
  const std::uint32_t main2 = recorder.threadIndex();
  EXPECT_EQ(main1, main2);
  std::uint32_t other = 0;
  std::thread([&]() { other = recorder.threadIndex(); }).join();
  EXPECT_NE(other, main1);
  EXPECT_LT(std::max(other, main1), 2u);
}

TEST(Recorder, NullSinkSpansAndExternalIntervalsWork) {
  // Null recorder: ScopedSpan must be a no-op, not a crash.
  { const obs::ScopedSpan span(nullptr, "ignored"); }

  // Externally timed interval via recordSpan directly.
  obs::Recorder recorder;
  recorder.recordSpan("manual", 7, 1'000, 4'000);
  const obs::RunReport report = recorder.report();
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].tid, 7u);
  EXPECT_DOUBLE_EQ(report.spans[0].durationSec(), 3e-6);
  EXPECT_DOUBLE_EQ(report.wallSec, 3e-6);
}

TEST(RunReport, GaugesAndSummaryRender) {
  obs::Recorder recorder;
  recorder.setGauge("trace_cache_mb", 1.5);
  recorder.setGauge("trace_cache_mb", 2.5);  // last write wins
  recorder.counter("points").add(42);
  { const obs::ScopedSpan span(&recorder, "phase"); }
  const obs::RunReport report = recorder.report();
  ASSERT_EQ(report.gauges.count("trace_cache_mb"), 1u);
  EXPECT_DOUBLE_EQ(report.gauges.at("trace_cache_mb"), 2.5);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("phase"), std::string::npos);
  EXPECT_NE(summary.find("points"), std::string::npos);
  EXPECT_NE(summary.find("trace_cache_mb"), std::string::npos);
  EXPECT_EQ(report.phaseTable().rowCount(), 1u);
}

// --- JSON sinks ---------------------------------------------------------

TEST(RunReport, ChromeTraceAndReportJsonAreWellFormed) {
  obs::Recorder recorder;
  // Hostile names: quotes, backslashes, newline, control char.
  {
    const obs::ScopedSpan span(&recorder, "na\"me\\with\nweird\x01chars");
  }
  { const obs::ScopedSpan span(&recorder, "plain"); }
  recorder.counter("count\"er").add(5);
  recorder.setGauge("ga\\uge", 0.25);

  const obs::RunReport report = recorder.report();
  std::ostringstream trace;
  report.writeChromeTrace(trace);
  EXPECT_TRUE(validJson(trace.str())) << trace.str();
  // Spot-check the trace-event shape.
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"ph\":\"X\""), std::string::npos);

  std::ostringstream json;
  report.writeJson(json);
  EXPECT_TRUE(validJson(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"wall_seconds\""), std::string::npos);
}

TEST(RunReport, EmptyRecorderStillExportsValidJson) {
  const obs::RunReport report = obs::Recorder().report();
  EXPECT_DOUBLE_EQ(report.wallSec, 0.0);
  std::ostringstream trace;
  report.writeChromeTrace(trace);
  EXPECT_TRUE(validJson(trace.str())) << trace.str();
  std::ostringstream json;
  report.writeJson(json);
  EXPECT_TRUE(validJson(json.str())) << json.str();
}

// --- End-to-end: instrumented exploration -------------------------------

ExploreOptions smallSweep() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 128;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 16;
  o.ranges.maxTiling = 4;
  return o;
}

bool samePoints(const std::vector<DesignPoint>& a,
                const std::vector<DesignPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || a[i].accesses != b[i].accesses ||
        a[i].missRate != b[i].missRate || a[i].cycles != b[i].cycles ||
        a[i].energyNj != b[i].energyNj) {
      return false;
    }
  }
  return true;
}

TEST(ObsIntegration, ExploreWithReportIsBitIdenticalToWithout) {
  const Kernel kernel = compressKernel();
  const Explorer plain(smallSweep());
  const ExplorationResult bare = plain.explore(kernel);

  obs::Recorder recorder;
  Explorer observed(smallSweep());
  observed.setRecorder(&recorder);
  const ExplorationResult instrumented = observed.explore(kernel);

  EXPECT_TRUE(samePoints(bare.points, instrumented.points));

  const obs::RunReport report = recorder.report();
  ASSERT_NE(report.phase("explore"), nullptr);
  ASSERT_NE(report.phase("planSweep"), nullptr);
  ASSERT_NE(report.phase("group.evaluate"), nullptr);
  ASSERT_NE(report.phase("trace.build"), nullptr);
  EXPECT_EQ(report.counter("sweep.points"), bare.points.size());
  EXPECT_EQ(report.counter("plan.keys"), bare.points.size());
  EXPECT_GT(report.counter("plan.groups"), 0u);
  EXPECT_EQ(report.counter("sweep.groups"), report.counter("plan.groups"));
  // Every group's trace is built exactly once.
  EXPECT_EQ(report.phase("trace.build")->count,
            report.counter("plan.groups"));
  EXPECT_GT(report.counter("trace.accesses"), 0u);
  // Default options are LRU/write-allocate, so the sweep resolves to the
  // stack-distance backend: the analytic workload counters replace the
  // per-config simulation counter.
  EXPECT_EQ(plain.resolvedBackend(), SweepBackend::StackDist);
  EXPECT_EQ(report.counter("sweep.groups_stackdist"),
            report.counter("sweep.groups"));
  EXPECT_EQ(report.counter("sim.accesses"), 0u);
  EXPECT_GT(report.counter("stackdist.passes"), 0u);
  EXPECT_GE(report.counter("stackdist.accesses"),
            report.counter("trace.accesses"));
  // Layout certification reports its probe effort once per assignment.
  EXPECT_GT(report.counter("layout.cache_miss"), 0u);
  EXPECT_GE(report.counter("layout.candidates_probed"),
            report.counter("layout.cache_miss"));
  EXPECT_GE(report.counter("layout.probe_refs"),
            report.counter("layout.candidates_probed"));
}

TEST(ObsIntegration, ParallelReportCarriesWorkerSpans) {
  const Kernel kernel = compressKernel();
  const ExplorationResult bare = exploreParallel(kernel, smallSweep(), 2);

  obs::Recorder recorder;
  Explorer observed(smallSweep());
  observed.setRecorder(&recorder);
  const ExplorationResult instrumented =
      exploreParallel(observed, kernel, 2);
  EXPECT_TRUE(samePoints(bare.points, instrumented.points));

  const obs::RunReport report = recorder.report();
  ASSERT_NE(report.phase("exploreParallel"), nullptr);
  const obs::PhaseStat* drain = report.phase("worker.drain");
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(drain->count, report.counter("parallel.workers"));
  EXPECT_EQ(report.counter("parallel.workers"), 2u);
  // Every group is claimed exactly once across all workers (the +workers
  // overshoot claims past the end are not counted).
  EXPECT_EQ(report.counter("parallel.groups_claimed"),
            report.counter("plan.groups"));
  EXPECT_EQ(report.counter("sweep.points"), bare.points.size());
  // Worker utilization is defined and sane.
  ASSERT_GE(report.workers.size(), 2u);  // main thread + workers
  for (const obs::WorkerStat& w : report.workers) {
    EXPECT_GE(w.utilization, 0.0);
    EXPECT_LE(w.utilization, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace memx
