// memx performance ledger: five cold end-to-end workloads, a traced run
// per workload for the per-layer numbers, and a compare mode.
//
//   ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//          [--scale full|smoke] [--json FILE]
//   ledger --all [--repeat N] [--seed N] [--seconds S] [--traced]
//          [--scale full|smoke] [--json FILE] [--benchmark FILE]
//   ledger --compare A.json B.json [--benchmark FILE]
//
// A single run prints its metrics by name and unit, then, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}, and exits 0 only when every
// operation and correctness check passed. `--traced` is `--trace 1`.
// See README.md for the workloads, the metrics and how to compare runs.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "memx/serve/json.hpp"

namespace {

using memx::ledger::Report;
using memx::ledger::RunConfig;
using memx::serve::JsonValue;
namespace ledger = memx::ledger;

struct Workload {
  const char* name;
  Report (*run)(const RunConfig&);
};

const std::vector<Workload> kWorkloads = {
    {"mpeg-cold", ledger::runMpegCold},
    {"policy-sweep", ledger::runPolicySweep},
    {"search", ledger::runSearch},
    {"serve-mix", ledger::runServeMix},
    {"trace-stream", ledger::runTraceStream},
};

struct Args {
  enum class Mode { One, All, Compare } mode = Mode::One;
  std::string workload;
  RunConfig cfg;
  bool secondsGiven = false;
  unsigned repeat = 1;
  std::string json;
  std::string benchmark = "BENCHMARK.json";
  bool benchmarkGiven = false;
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "ledger: " << error << "\n"
            << "usage: ledger --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale full|smoke] [--json FILE]\n"
               "       ledger --all [--repeat N] [--seed N] [--seconds S] "
               "[--traced] [--scale full|smoke] [--json FILE] "
               "[--benchmark FILE]\n"
               "       ledger --compare A.json B.json [--benchmark FILE]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return n;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool scaleSmoke = false;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = value(i);
    } else if (flag == "--seed") {
      a.cfg.seed = parseUnsigned(flag, value(i));
    } else if (flag == "--seconds") {
      const std::string v = value(i);
      char* end = nullptr;
      a.cfg.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.cfg.seconds >= 0.0) ||
          a.cfg.seconds > 3600.0) {
        usage("--seconds needs a number in [0, 3600], got '" + v + "'");
      }
      a.secondsGiven = true;
    } else if (flag == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") usage("--trace needs 0 or 1, got '" + v + "'");
      a.cfg.traced = v == "1";
    } else if (flag == "--traced") {
      a.cfg.traced = true;
    } else if (flag == "--scale") {
      const std::string v = value(i);
      if (v != "full" && v != "smoke") {
        usage("--scale needs full or smoke, got '" + v + "'");
      }
      scaleSmoke = v == "smoke";
    } else if (flag == "--json") {
      a.json = value(i);
    } else if (flag == "--all") {
      a.mode = Args::Mode::All;
    } else if (flag == "--repeat") {
      a.repeat = static_cast<unsigned>(parseUnsigned(flag, value(i)));
      if (a.repeat == 0 || a.repeat > 100) usage("--repeat needs 1..100");
    } else if (flag == "--benchmark") {
      a.benchmark = value(i);
      a.benchmarkGiven = true;
    } else if (flag == "--compare") {
      a.mode = Args::Mode::Compare;
      a.compare.push_back(value(i));
      a.compare.push_back(value(i));
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  a.cfg.smoke = scaleSmoke;
  if (!a.secondsGiven) a.cfg.seconds = scaleSmoke ? 0.0 : 15.0;
  if (a.mode == Args::Mode::One) {
    if (a.workload.empty()) usage("give --workload, --all or --compare");
    bool known = false;
    for (const Workload& w : kWorkloads) known = known || a.workload == w.name;
    if (!known) usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- one workload run ---------------------------------------------------

/// The result line: exactly correct/attempted/failed/metrics, with every
/// metric of the run's list. A metric that is not finite fails the run.
JsonValue resultValue(Report& report, bool traced) {
  JsonValue::Object metrics;
  for (const ledger::MetricSpec& m :
       traced ? ledger::kPerLayer : ledger::kEndToEnd) {
    const auto it = report.values.find(m.name);
    double v = it == report.values.end() ? 0.0 : it->second;
    if (!report.check(std::isfinite(v),
                      std::string("metric ") + m.name + " is not finite")) {
      v = 0.0;
    }
    JsonValue::Object entry;
    entry.emplace("value", v);
    entry.emplace("unit", m.unit);
    metrics.emplace(m.name, JsonValue(std::move(entry)));
  }
  JsonValue::Object o;
  o.emplace("correct", report.failed == 0);
  o.emplace("attempted", report.attempted);
  o.emplace("failed", report.failed);
  o.emplace("metrics", JsonValue(std::move(metrics)));
  return JsonValue(std::move(o));
}

/// A run as the --json files and --compare store it.
JsonValue runRecord(const std::string& workload, const RunConfig& cfg,
                    const JsonValue& result) {
  JsonValue::Object o = result.asObject();
  o.emplace("workload", workload);
  o.emplace("seed", cfg.seed);
  o.emplace("traced", cfg.traced);
  return JsonValue(std::move(o));
}

void writeRuns(const std::string& path, JsonValue::Array runs) {
  JsonValue::Object o;
  o.emplace("schema", "memx-ledger-1");
  o.emplace("runs", JsonValue(std::move(runs)));
  std::ofstream out(path);
  out << JsonValue(std::move(o)).dump() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

int runOne(const Args& args) {
  Report report;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) report = w.run(args.cfg);
  }
  JsonValue result = resultValue(report, args.cfg.traced);

  std::printf("ledger %s  seed %llu  window %g s  %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.cfg.seed),
              args.cfg.seconds,
              args.cfg.traced ? "traced (per-layer)" : "end-to-end");
  const JsonValue::Object& metrics = result.asObject().at("metrics").asObject();
  for (const ledger::MetricSpec& m :
       args.cfg.traced ? ledger::kPerLayer : ledger::kEndToEnd) {
    std::printf("  %-28s %18.6g %s\n", m.name,
                metrics.at(m.name).asObject().at("value").asNumber(), m.unit);
  }
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  checks: %llu attempted, %llu failed, error_ratio %g\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted ? static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                               : 0.0);
  std::fflush(stdout);
  if (!args.json.empty()) {
    writeRuns(args.json, {runRecord(args.workload, args.cfg, result)});
  }
  std::cout << result.dump() << std::endl;
  return report.failed == 0 ? 0 : 1;
}

// --- --all ----------------------------------------------------------------

/// Names and units BENCHMARK.json lists, per kind.
struct BenchmarkSpec {
  std::map<std::string, std::string> endToEnd, perLayer;
  /// end_to_end name -> (lower is better, bound)
  std::map<std::string, std::pair<bool, double>> bounds;
};

BenchmarkSpec loadBenchmark(const std::string& path) {
  const JsonValue root = JsonValue::parse(readFile(path));
  BenchmarkSpec spec;
  for (const JsonValue& m : root.asObject().at("end_to_end").asArray()) {
    const JsonValue::Object& o = m.asObject();
    spec.endToEnd[o.at("name").asString()] = o.at("unit").asString();
    spec.bounds[o.at("name").asString()] = {
        o.at("better").asString() == "lower", o.at("bound").asNumber()};
  }
  for (const JsonValue& m : root.asObject().at("per_layer").asArray()) {
    const JsonValue::Object& o = m.asObject();
    spec.perLayer[o.at("name").asString()] = o.at("unit").asString();
  }
  return spec;
}

/// Problems with one child's result line against BENCHMARK.json.
std::vector<std::string> validateResult(const JsonValue& result, bool traced,
                                        const BenchmarkSpec* spec) {
  std::vector<std::string> problems;
  const JsonValue::Object& o = result.asObject();
  if (o.size() != 4 || !o.contains("correct") || !o.contains("attempted") ||
      !o.contains("failed") || !o.contains("metrics")) {
    problems.push_back("result keys are not correct/attempted/failed/metrics");
    return problems;
  }
  if (!o.at("correct").asBool()) problems.push_back("correct is false");
  if (o.at("failed").asNumber() != 0.0) problems.push_back("failed is not 0");
  if (o.at("attempted").asNumber() < 1.0) problems.push_back("attempted < 1");
  if (spec == nullptr) return problems;
  const auto& expected = traced ? spec->perLayer : spec->endToEnd;
  const JsonValue::Object& metrics = o.at("metrics").asObject();
  for (const auto& [name, unit] : expected) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      problems.push_back("metric " + name + " missing");
    } else if (it->second.asObject().at("unit").asString() != unit) {
      problems.push_back("metric " + name + " has unit " +
                         it->second.asObject().at("unit").asString() +
                         ", BENCHMARK.json says " + unit);
    }
  }
  for (const auto& [name, entry] : metrics) {
    if (!expected.contains(name)) {
      problems.push_back("metric " + name + " is not in BENCHMARK.json");
    }
  }
  return problems;
}

std::string selfPath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : argv0;
}

int runAll(const Args& args, const char* argv0) {
  std::optional<BenchmarkSpec> spec;
  if (args.benchmarkGiven || std::ifstream(args.benchmark)) {
    spec = loadBenchmark(args.benchmark);
  } else {
    std::cout << "ledger: no " << args.benchmark
              << "; metric names are not checked against it\n";
  }
  const std::string self = selfPath(argv0);
  JsonValue::Array runs;
  std::size_t bad = 0;
  for (const Workload& w : kWorkloads) {
    for (unsigned rep = 0; rep < args.repeat; ++rep) {
      RunConfig cfg = args.cfg;
      cfg.seed = args.cfg.seed + rep;
      std::ostringstream cmd;
      cmd << '\'' << self << "' --workload " << w.name << " --seed "
          << cfg.seed << " --seconds " << cfg.seconds << " --trace "
          << (cfg.traced ? 1 : 0) << " --scale "
          << (cfg.smoke ? "smoke" : "full");
      std::fflush(stdout);
      FILE* pipe = ::popen(cmd.str().c_str(), "r");
      if (pipe == nullptr) throw std::runtime_error("cannot start " + self);
      std::string output;
      char chunk[4096];
      std::size_t got = 0;
      while ((got = std::fread(chunk, 1, sizeof chunk, pipe)) > 0) {
        output.append(chunk, got);
      }
      const int status = ::pclose(pipe);

      std::vector<std::string> lines;
      std::istringstream in(output);
      for (std::string line; std::getline(in, line);) lines.push_back(line);
      for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        std::cout << lines[i] << '\n';
      }
      std::vector<std::string> problems;
      if (status != 0) {
        problems.push_back("exit status " + std::to_string(status));
      }
      try {
        const JsonValue result =
            JsonValue::parse(lines.empty() ? "" : lines.back());
        const auto found =
            validateResult(result, cfg.traced, spec ? &*spec : nullptr);
        problems.insert(problems.end(), found.begin(), found.end());
        runs.push_back(runRecord(w.name, cfg, result));
      } catch (const std::exception& e) {
        problems.push_back(std::string("result line does not parse: ") +
                           e.what());
      }
      for (const std::string& p : problems) {
        std::cout << "  PROBLEM (" << w.name << " seed " << cfg.seed
                  << "): " << p << '\n';
      }
      bad += problems.empty() ? 0 : 1;
    }
  }
  std::cout << "ledger --all: " << runs.size() << " runs, " << bad
            << " with problems\n";
  if (!args.json.empty()) writeRuns(args.json, std::move(runs));
  return bad == 0 ? 0 : 1;
}

// --- --compare --------------------------------------------------------

/// metric values per (workload, metric) over the untraced or traced runs.
using Samples = std::map<std::pair<std::string, std::string>,
                         std::vector<double>>;

struct RunSet {
  Samples untraced, traced;
  /// workload -> (failed, attempted) summed over its runs
  std::map<std::string, std::pair<double, double>> errors;
};

RunSet loadRuns(const std::string& path) {
  RunSet set;
  const JsonValue root = JsonValue::parse(readFile(path));
  for (const JsonValue& run : root.asObject().at("runs").asArray()) {
    const JsonValue::Object& o = run.asObject();
    const std::string workload = o.at("workload").asString();
    Samples& into = o.at("traced").asBool() ? set.traced : set.untraced;
    for (const auto& [name, entry] : o.at("metrics").asObject()) {
      into[{workload, name}].push_back(
          entry.asObject().at("value").asNumber());
    }
    auto& [failed, attempted] = set.errors[workload];
    failed += o.at("failed").asNumber();
    attempted += o.at("attempted").asNumber();
  }
  return set;
}

/// Median and quartile spread ((q3 - q1) / median) of one side's runs.
struct Summary {
  double median = 0.0;
  double spread = 0.0;
};

Summary summarize(const std::vector<double>& v) {
  const std::vector<double> q = ledger::quartiles(v);
  return {q[1], q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1]) : 0.0};
}

/// Verdict of one (workload, metric) row, after the rules in README.md.
/// `judgeSpread` is false for setup_s, whose microsecond timings spread
/// wider than any bound on a shared machine; only its median is judged.
std::string verdict(const std::vector<double>& a, const std::vector<double>& b,
                    bool lowerIsBetter, double bound, bool judgeSpread) {
  const Summary sa = summarize(a);
  const Summary sb = summarize(b);
  const auto [aLo, aHi] = std::minmax_element(a.begin(), a.end());
  const auto [bLo, bHi] = std::minmax_element(b.begin(), b.end());
  const bool allBetter = lowerIsBetter ? *bHi < *aLo : *bLo > *aHi;
  const double change =
      sa.median != 0.0 ? (sb.median - sa.median) / std::abs(sa.median) : 0.0;
  const double worse = lowerIsBetter ? change : -change;
  if (judgeSpread && std::max(sa.spread, sb.spread) > bound) {
    return allBetter ? "improved" : "unresolved";
  }
  if (worse > bound) return "regressed";
  return -worse > bound ? "improved" : "unchanged";
}

int runCompare(const Args& args) {
  const BenchmarkSpec spec = loadBenchmark(args.benchmark);
  const RunSet a = loadRuns(args.compare[0]);
  const RunSet b = loadRuns(args.compare[1]);
  std::size_t regressed = 0;
  std::printf("%-13s %-24s %14s %9s %14s %9s %9s  %s\n", "workload",
              "metric", "A median", "A spread", "B median", "B spread",
              "change", "verdict");
  const auto row = [&](const std::string& workload, const std::string& metric,
                       const std::vector<double>& va,
                       const std::vector<double>& vb, const std::string& v) {
    const Summary sa = summarize(va);
    const Summary sb = summarize(vb);
    const double change =
        sa.median != 0.0 ? (sb.median - sa.median) / std::abs(sa.median)
                         : 0.0;
    std::printf("%-13s %-24s %14.6g %8.2f%% %14.6g %8.2f%% %+8.2f%%  %s\n",
                workload.c_str(), metric.c_str(), sa.median,
                100.0 * sa.spread, sb.median, 100.0 * sb.spread,
                100.0 * change, v.c_str());
    if (v == "regressed") ++regressed;
  };
  for (const Workload& w : kWorkloads) {
    for (const auto& [metric, bound] : spec.bounds) {
      const auto ia = a.untraced.find({w.name, metric});
      const auto ib = b.untraced.find({w.name, metric});
      if (ia == a.untraced.end() || ib == b.untraced.end()) continue;
      row(w.name, metric, ia->second, ib->second,
          verdict(ia->second, ib->second, bound.first, bound.second,
                  metric != "setup_s"));
    }
    const auto ea = a.errors.find(w.name);
    const auto eb = b.errors.find(w.name);
    if (ea != a.errors.end() && eb != b.errors.end()) {
      const double ra = ea->second.first / ea->second.second;
      const double rb = eb->second.first / eb->second.second;
      row(w.name, "error_ratio", {ra}, {rb},
          rb > ra ? "regressed" : "unchanged");
    }
    for (const auto& [metric, unit] : spec.perLayer) {
      const auto ia = a.traced.find({w.name, metric});
      const auto ib = b.traced.find({w.name, metric});
      if (ia == a.traced.end() || ib == b.traced.end()) continue;
      row(w.name, metric, ia->second, ib->second, "(layer, no bound)");
    }
  }
  std::printf("%zu regressed\n", regressed);
  return regressed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  try {
    switch (args.mode) {
      case Args::Mode::One:
        return runOne(args);
      case Args::Mode::All:
        return runAll(args, argv[0]);
      case Args::Mode::Compare:
        return runCompare(args);
    }
  } catch (const std::exception& e) {
    std::cerr << "ledger: " << e.what() << '\n';
  }
  return 2;
}
