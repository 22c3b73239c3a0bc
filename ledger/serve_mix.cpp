// serve-mix: one in-process serve::Server, default options, driven
// through handleLine by closed-loop clients, one thread each (at most 4,
// never more than the cores). Each client owns its kernels — the
// Compress stencil sent inline, tagged with the client and a variant
// number — so every store outcome is fixed by the seed. Per block of 20
// requests, in seeded order: 14 repeats of one of the client's last 16
// requests (store hits), 3 narrower ranges over one of its last 4 wide
// sweeps (subset re-selection) and 3 new kernels (cold misses through
// the layout path); every request asks for the full CSV. The working
// set stays far inside the store's 256 entries, so eviction never turns
// a scripted hit into a miss. This is the one workload where the result
// store and the JSON/CSV encoding sit on the fast path.
//
// A traced run serves the same script twice on fresh servers: first
// plain, then with include_report, whose per-request RunReports carry
// the spans and counters memx emits.
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <exception>
#include <iostream>
#include <random>
#include <thread>

#include "ledger.hpp"
#include "memx/core/explorer.hpp"
#include "memx/loopir/kernel_parser.hpp"
#include "memx/report/result_io.hpp"
#include "memx/serve/json.hpp"
#include "memx/serve/server.hpp"

namespace memx::ledger {
namespace {

using serve::JsonValue;

constexpr const char* kCompressSource =
    "array a[32][32] : 1\n"
    "for i = 1 .. 31\n"
    "  for j = 1 .. 31\n"
    "    a[i][j] = a[i][j] - a[i-1][j] - a[i][j-1] - 2*a[i-1][j-1]\n";

enum class Kind : std::uint8_t { Miss, Subset, Repeat };

constexpr std::array<const char*, 3> kKindNames = {"miss", "subset", "hit"};

struct Shape {
  std::uint32_t onChip, maxCache, maxLine, maxAssoc, maxTiling;
};

Shape wideShape(bool smoke) {
  return smoke ? Shape{256, 256, 32, 2, 4} : Shape{2048, 2048, 64, 4, 8};
}

/// Narrower ranges, each covered by the wide sweep and none by another.
std::array<Shape, 3> narrowShapes(bool smoke) {
  if (smoke) {
    return {Shape{128, 128, 16, 2, 2}, Shape{256, 256, 8, 2, 4},
            Shape{256, 256, 32, 1, 1}};
  }
  return {Shape{512, 512, 32, 2, 4}, Shape{1024, 1024, 16, 4, 8},
          Shape{2048, 2048, 32, 1, 2}};
}

ExploreOptions optionsFor(const Shape& s) {
  ExploreOptions o;
  o.ranges.onChipBytes = s.onChip;
  o.ranges.maxCacheBytes = s.maxCache;
  o.ranges.maxLineBytes = s.maxLine;
  o.ranges.maxAssociativity = s.maxAssoc;
  o.ranges.maxTiling = s.maxTiling;
  return o;
}

struct ScriptedRequest {
  Kind kind = Kind::Miss;
  std::string line;
  std::string source;
  Shape shape{};
};

/// One client's endless, seed-determined request sequence.
class ClientScript {
public:
  ClientScript(std::uint64_t seed, unsigned client, bool smoke,
               bool includeReport)
      : rng_(splitmix64(seed * 64 + client)),
        client_(client),
        smoke_(smoke),
        includeReport_(includeReport) {}

  ScriptedRequest next() {
    if (recent_.empty()) return newKernel();
    if (block_.empty()) {
      block_.assign(14, Kind::Repeat);
      block_.insert(block_.end(), 3, Kind::Subset);
      block_.insert(block_.end(), 3, Kind::Miss);
      std::shuffle(block_.begin(), block_.end(), rng_);
    }
    const Kind kind = block_.back();
    block_.pop_back();
    if (kind == Kind::Repeat) {
      ScriptedRequest r = recent_[rng_() % recent_.size()];
      r.kind = Kind::Repeat;
      return r;
    }
    if (kind == Kind::Subset) {
      std::vector<std::size_t> candidates;
      for (std::size_t k = 0; k < kernels_.size(); ++k) {
        if (!kernels_[k].unusedNarrow.empty()) candidates.push_back(k);
      }
      if (!candidates.empty()) {
        RecentKernel& kernel = kernels_[candidates[rng_() % candidates.size()]];
        const std::size_t pick = rng_() % kernel.unusedNarrow.size();
        const std::size_t narrow = kernel.unusedNarrow[pick];
        kernel.unusedNarrow.erase(kernel.unusedNarrow.begin() +
                                  static_cast<std::ptrdiff_t>(pick));
        return makeRequest(Kind::Subset, kernel.variant,
                           narrowShapes(smoke_)[narrow]);
      }
    }
    return newKernel();
  }

private:
  static constexpr std::size_t kRecentRequests = 16;
  static constexpr std::size_t kRecentKernels = 4;

  struct RecentKernel {
    std::size_t variant = 0;
    std::vector<std::size_t> unusedNarrow;  ///< indices into narrowShapes
  };

  ScriptedRequest newKernel() {
    if (kernels_.size() == kRecentKernels) kernels_.pop_front();
    kernels_.push_back(RecentKernel{variants_, {0, 1, 2}});
    return makeRequest(Kind::Miss, variants_++, wideShape(smoke_));
  }

  ScriptedRequest makeRequest(Kind kind, std::size_t variant,
                              const Shape& shape) {
    ScriptedRequest r;
    r.kind = kind;
    r.shape = shape;
    r.source = "# ledger client " + std::to_string(client_) + " kernel " +
               std::to_string(variant) + "\n" + kCompressSource;
    JsonValue::Object ranges;
    ranges.emplace("on_chip_bytes", shape.onChip);
    ranges.emplace("max_cache_bytes", shape.maxCache);
    ranges.emplace("max_line_bytes", shape.maxLine);
    ranges.emplace("max_associativity", shape.maxAssoc);
    ranges.emplace("max_tiling", shape.maxTiling);
    JsonValue::Object options;
    options.emplace("ranges", JsonValue(std::move(ranges)));
    JsonValue::Object request;
    request.emplace("id", "c" + std::to_string(client_) + "-" +
                              std::to_string(requests_++));
    request.emplace("op", "explore");
    request.emplace("kernel_src", r.source);
    request.emplace("options", JsonValue(std::move(options)));
    request.emplace("include_points", true);
    if (includeReport_) request.emplace("include_report", true);
    r.line = JsonValue(std::move(request)).dump();
    if (recent_.size() == kRecentRequests) recent_.pop_front();
    recent_.push_back(r);
    return r;
  }

  std::mt19937_64 rng_;
  unsigned client_;
  bool smoke_;
  bool includeReport_;
  std::size_t requests_ = 0;
  std::size_t variants_ = 0;
  std::deque<ScriptedRequest> recent_;
  std::deque<RecentKernel> kernels_;
  std::vector<Kind> block_;
};

/// What one client saw during a phase.
struct ClientLog {
  std::vector<double> latencySec;
  std::array<std::vector<double>, 3> latencyByKind;
  std::uint64_t bad = 0;  ///< failed responses or unexpected store outcomes
  std::uint64_t responseBytes = 0;
  /// First miss and first subset response, for the CSV identity check.
  std::vector<std::pair<ScriptedRequest, std::string>> samples;
  std::map<std::string, double> phaseSec;  ///< from embedded reports
  std::map<std::string, std::uint64_t> counters;
  std::exception_ptr error;
};

bool flag(const JsonValue::Object& o, const char* key) {
  const auto it = o.find(key);
  return it != o.end() && it->second.isBool() && it->second.asBool();
}

void absorbReport(const JsonValue& report, ClientLog& log) {
  const JsonValue::Object& r = report.asObject();
  for (const JsonValue& phase : r.at("phases").asArray()) {
    const JsonValue::Object& p = phase.asObject();
    log.phaseSec[p.at("name").asString()] += p.at("total_seconds").asNumber();
  }
  for (const auto& [name, value] : r.at("counters").asObject()) {
    log.counters[name] += static_cast<std::uint64_t>(value.asNumber());
  }
}

void runClient(serve::Server& server, ClientScript& script,
               Clock::time_point deadline, ClientLog& log) {
  do {
    const ScriptedRequest request = script.next();
    const auto t0 = Clock::now();
    const std::string response = server.handleLine(request.line);
    const double sec = secondsSince(t0);
    const auto kind = static_cast<std::size_t>(request.kind);
    log.latencySec.push_back(sec);
    log.latencyByKind[kind].push_back(sec);
    log.responseBytes += response.size();

    const JsonValue parsed = JsonValue::parse(response);
    const JsonValue::Object& o = parsed.asObject();
    const bool expected = flag(o, "ok") &&
                          flag(o, "cached") == (request.kind == Kind::Repeat) &&
                          flag(o, "subset") == (request.kind == Kind::Subset);
    if (!expected) {
      ++log.bad;
      std::cerr << "serve-mix: unexpected response to a "
                << kKindNames[kind] << " request: "
                << response.substr(0, 200) << '\n';
    }
    if (const auto it = o.find("report"); it != o.end()) {
      absorbReport(it->second, log);
    }
    const bool firstOfKind =
        request.kind != Kind::Repeat && log.latencyByKind[kind].size() == 1;
    if (firstOfKind && expected) {
      log.samples.emplace_back(request, o.at("csv").asString());
    }
  } while (Clock::now() < deadline);
}

struct Phase {
  std::vector<ClientLog> logs;
  serve::ResultStore::Counters store;
  double wallSec = 0.0;
};

Phase servePhase(const RunConfig& cfg, unsigned clients, double seconds,
                 bool includeReport) {
  serve::Server server;
  std::vector<ClientScript> scripts;
  for (unsigned c = 0; c < clients; ++c) {
    scripts.emplace_back(cfg.seed, c, cfg.smoke, includeReport);
  }
  Phase phase;
  phase.logs.resize(clients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        runClient(server, scripts[c], deadline, phase.logs[c]);
      } catch (...) {
        phase.logs[c].error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wallSec = secondsSince(start);
  for (const ClientLog& log : phase.logs) {
    if (log.error) std::rethrow_exception(log.error);
  }
  phase.store = server.store().counters();
  return phase;
}

/// Every response as scripted, the store counters exactly the script's
/// tally, and each client's first miss and subset CSV byte-identical to
/// a direct Explorer::explore of the same kernel and ranges.
void checkPhase(Report& report, const Phase& phase, const char* label) {
  std::array<std::uint64_t, 3> count{};
  for (const ClientLog& log : phase.logs) {
    for (std::size_t k = 0; k < 3; ++k) {
      count[k] += log.latencyByKind[k].size();
    }
    report.attempted += log.latencySec.size();
    report.failed += log.bad;
    for (const auto& [request, csv] : log.samples) {
      const Kernel kernel = parseKernel(request.source, "<inline>");
      const std::string direct =
          toCsvString(Explorer(optionsFor(request.shape)).explore(kernel));
      report.check(csv == direct,
                   std::string("serve-mix: served CSV of a ") +
                       kKindNames[static_cast<std::size_t>(request.kind)] +
                       " request differs from a direct explore (" + label +
                       ")");
    }
  }
  const auto miss = static_cast<std::size_t>(Kind::Miss);
  const auto subset = static_cast<std::size_t>(Kind::Subset);
  const auto repeat = static_cast<std::size_t>(Kind::Repeat);
  report.check(phase.store.misses == count[miss] &&
                   phase.store.subsetHits == count[subset] &&
                   phase.store.hits == count[repeat],
               std::string("serve-mix: store counters (misses ") +
                   std::to_string(phase.store.misses) + ", subset hits " +
                   std::to_string(phase.store.subsetHits) + ", hits " +
                   std::to_string(phase.store.hits) +
                   ") differ from the script (" + std::to_string(count[miss]) +
                   ", " + std::to_string(count[subset]) + ", " +
                   std::to_string(count[repeat]) + ") in the " + label +
                   " phase");
}

std::vector<double> allLatencies(const Phase& phase) {
  std::vector<double> all;
  for (const ClientLog& log : phase.logs) {
    all.insert(all.end(), log.latencySec.begin(), log.latencySec.end());
  }
  return all;
}

void noteKinds(Report& report, const Phase& phase, unsigned clients) {
  std::string line = std::to_string(clients) + " clients;";
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<double> sec;
    for (const ClientLog& log : phase.logs) {
      sec.insert(sec.end(), log.latencyByKind[k].begin(),
                 log.latencyByKind[k].end());
    }
    char part[96];
    std::snprintf(part, sizeof part, " %s p50 %.3f ms (%zu)", kKindNames[k],
                  1e3 * median(sec), sec.size());
    line += part;
  }
  report.note(line);
}

}  // namespace

Report runServeMix(const RunConfig& cfg) {
  Report report;
  const unsigned clients =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (!cfg.traced) {
    const Phase phase = servePhase(cfg, clients, cfg.seconds, false);
    const std::vector<double> latency = allLatencies(phase);
    const double setup =
        setupSeconds([] { const serve::Server server; }, cfg.smoke);
    reportEndToEnd(report, setup, latency, "request",
                   static_cast<double>(latency.size()), "requests",
                   phase.wallSec);
    checkPhase(report, phase, "plain");
    noteKinds(report, phase, clients);
    return report;
  }

  const Phase plain = servePhase(cfg, clients, cfg.seconds / 2, false);
  const Phase traced = servePhase(cfg, clients, cfg.seconds / 2, true);
  checkPhase(report, plain, "plain");
  checkPhase(report, traced, "traced");

  double wall = 0.0;
  std::map<std::string, double> phaseSec;
  std::map<std::string, std::uint64_t> counters;
  for (const ClientLog& log : traced.logs) {
    for (const double s : log.latencySec) wall += s;
    for (const auto& [name, sec] : log.phaseSec) phaseSec[name] += sec;
    for (const auto& [name, n] : log.counters) counters[name] += n;
  }
  const auto sec = [&](const char* name) {
    const auto it = phaseSec.find(name);
    return it == phaseSec.end() ? 0.0 : it->second;
  };
  const auto share = [&](double s) {
    return wall > 0.0 ? 100.0 * s / wall : 0.0;
  };
  const double request = sec("serve.request");
  const double encode = share(wall - request);
  const double handler =
      share(request - sec("serve.compute") - sec("serve.reselect"));
  const double reselect = share(sec("serve.reselect"));
  const double plan = share(sec("planSweep"));
  const double build = share(sec("trace.build"));
  const double evaluate = share(sec("group.evaluate"));
  report.set("serve.encode_pct", encode);
  report.set("serve.handler_pct", handler);
  report.set("serve.reselect_pct", reselect);
  report.set("layout.plan_pct", plan);
  report.set("loopir.trace_build_pct", build);
  report.set(counters["sweep.groups_multisim"] > 0 ? "cachesim.multisim_pct"
                                                   : "stackdist.evaluate_pct",
             evaluate);
  report.set("bench.attributed_pct",
             encode + handler + reselect + plan + build + evaluate);

  const std::vector<double> plainLatency = allLatencies(plain);
  const double requests = static_cast<double>(plainLatency.size());
  std::uint64_t bytes = 0;
  for (const ClientLog& log : plain.logs) bytes += log.responseBytes;
  report.set("serve.store_hit_ratio",
             static_cast<double>(plain.store.hits) / requests);
  report.set("serve.subset_hit_ratio",
             static_cast<double>(plain.store.subsetHits) / requests);
  report.set("serve.response_bytes", static_cast<double>(bytes) / requests);
  reportLibraryCounters(report, counters,
                        static_cast<double>(allLatencies(traced).size()));
  reportTraceOverhead(report,
                      Rounds{plainLatency, allLatencies(traced), 0.0});
  noteKinds(report, plain, clients);
  return report;
}

}  // namespace memx::ledger
