#include "memx/serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <variant>
#include <vector>

#include "memx/core/selection.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/kernels/registry.hpp"
#include "memx/loopir/kernel_parser.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/report/result_io.hpp"
#include "memx/search/front_io.hpp"
#include "memx/serve/job_queue.hpp"
#include "memx/trace/file_source.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx::serve {

namespace {

/// A workload plus its cache-key identity. The identity must pin the
/// *content*: two identities are equal only if the workload's reference
/// stream is byte-identical, which is what lets results be shared
/// across requests.
struct ResolvedKernel {
  Kernel kernel;
  std::string identity;
};

[[nodiscard]] ResolvedKernel resolveKernel(const Request& request) {
  if (!request.kernelSource.empty()) {
    return {parseKernel(request.kernelSource, "<inline>"),
            "src:" + cacheKeyDigest(request.kernelSource)};
  }
  const std::string& name = request.workload;
  if (name.find('/') != std::string::npos ||
      (name.size() > 3 && name.substr(name.size() - 3) == ".mx")) {
    // A kernel file: key by content, not by path — the file may change
    // between requests, and a stale path-keyed entry would silently
    // serve the old kernel's sweep.
    std::ifstream file(name);
    if (!file) throw ServeError("cannot open kernel file " + name);
    std::ostringstream text;
    text << file.rdbuf();
    return {parseKernel(text.str(), name),
            "src:" + cacheKeyDigest(text.str())};
  }
  return {registeredKernel(name), "kernel:" + name};
}

/// Trace files are keyed by (path, size, mtime): re-simulating a
/// multi-GB trace to hash its content would defeat the cache, so a
/// rewritten-in-place file with identical size and timestamp is the
/// accepted blind spot (op:invalidate exists for exactly that).
[[nodiscard]] std::string traceIdentity(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw ServeError("cannot stat trace file " + path);
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) throw ServeError("cannot stat trace file " + path);
  return "trace:" + path + ":" + std::to_string(size) + ":" +
         std::to_string(mtime.time_since_epoch().count());
}

[[nodiscard]] std::string windowKey(const TraceWindow& window) {
  return "skip=" + std::to_string(window.skip) +
         ";warmup=" + std::to_string(window.warmup) +
         ";limit=" + std::to_string(window.limit) + ";";
}

[[nodiscard]] std::string searchKey(const Request& request) {
  const search::SearchOptions& s = request.search;
  return "seed=" + std::to_string(s.seed) +
         ";pop=" + std::to_string(s.populationSize) +
         ";gens=" + std::to_string(s.generations) +
         ";tourn=" + std::to_string(s.tournamentSize) +
         ";cx=" + formatDouble17(s.crossoverRate) +
         ";mut=" + formatDouble17(s.mutationRate) +
         ";budget=" + std::to_string(s.maxEvaluations) +
         ";finish=" + (s.finishExhaustively ? "1" : "0") +
         ";joint=" + (request.jointSpace ? "1" : "0") + ";";
}

[[nodiscard]] JsonValue pointValue(const DesignPoint& point) {
  JsonValue::Object o;
  o.emplace("label", point.label());
  o.emplace("cache", point.key.cacheBytes);
  o.emplace("line", point.key.lineBytes);
  o.emplace("assoc", point.key.associativity);
  o.emplace("tiling", point.key.tiling);
  o.emplace("accesses", point.accesses);
  o.emplace("miss_rate", point.missRate);
  o.emplace("cycles", point.cycles);
  o.emplace("energy_nj", point.energyNj);
  return JsonValue(std::move(o));
}

[[nodiscard]] std::optional<DesignPoint> selectPoint(
    const Request& request, const ExplorationResult& result) {
  switch (request.metric) {
    case SelectionMetric::MinEnergy:
      return bestUnderBounds(result.points, request.cycleBound,
                             request.energyBound);
    case SelectionMetric::MinCycles:
      return minCyclePoint(result.points, request.energyBound);
    case SelectionMetric::MinEdp:
      return minEdpPoint(result.points);
  }
  return std::nullopt;
}

[[nodiscard]] JsonValue reportValue(const obs::Recorder& recorder) {
  std::ostringstream os;
  recorder.report().writeJson(os);
  // Round-tripping through the parser embeds the report as a JSON
  // subtree (not an escaped string) and doubles as a validity check.
  return JsonValue::parse(os.str());
}

[[nodiscard]] JsonValue errorValue(const JsonValue& id, std::string_view op,
                                   const std::string& message) {
  JsonValue::Object o;
  o.emplace("id", id);
  o.emplace("ok", false);
  if (!op.empty()) o.emplace("op", std::string(op));
  o.emplace("error", message);
  return JsonValue(std::move(o));
}

/// Best-effort id extraction for error responses on requests that
/// failed validation (or never parsed at all).
[[nodiscard]] JsonValue idOf(const JsonValue& root) noexcept {
  if (!root.isObject()) return JsonValue(nullptr);
  const auto& object = root.asObject();
  const auto it = object.find("id");
  return it == object.end() ? JsonValue(nullptr) : it->second;
}

/// Read one '\n'-terminated line with a hard length cap. Returns false
/// on EOF with nothing read. A line over the cap is consumed to its end
/// and reported via `overflowed` so the server can reject it without
/// buffering it.
bool readLineBounded(std::istream& in, std::string& line, std::size_t cap,
                     bool& overflowed) {
  line.clear();
  overflowed = false;
  char c = 0;
  bool any = false;
  while (in.get(c)) {
    any = true;
    if (c == '\n') return true;
    if (line.size() >= cap) {
      overflowed = true;
      continue;  // keep consuming to the newline, discard the excess
    }
    line += c;
  }
  return any;
}

/// The points of `keys` from `parent`, when it holds every one of them.
/// Both lists are in sweepKeys() order, so one ordered walk finds each
/// key or shows one missing. Equal model keys give equal points per
/// sweep key, so the slice is bit-identical to sweeping `keys` directly.
[[nodiscard]] std::optional<std::vector<DesignPoint>> sliceKeys(
    const std::vector<DesignPoint>& parent,
    const std::vector<ConfigKey>& keys) {
  std::vector<DesignPoint> sliced;
  sliced.reserve(keys.size());
  auto next = parent.begin();
  for (const ConfigKey& k : keys) {
    while (next != parent.end() && next->key != k) ++next;
    if (next == parent.end()) return std::nullopt;
    sliced.push_back(*next++);
  }
  return sliced;
}

/// Resolve `key` through the store and count how it was answered on the
/// request's own recorder.
[[nodiscard]] ResultStore::Resolved resolveCounted(
    ResultStore& store, obs::Recorder& recorder, const ResultStore::Key& key,
    const std::function<ResultStore::Computed(const ResultStore::Siblings&)>&
        compute) {
  // Indexed by ResultStore::Source.
  constexpr const char* kCounters[] = {"serve.store_hits", "serve.store_misses",
                                       "serve.store_subset_hits"};
  ResultStore::Resolved resolved = store.resolve(key, compute);
  recorder.counter(kCounters[static_cast<std::size_t>(resolved.source)]).add();
  return resolved;
}

/// The response fields shared by explore and trace sweeps.
[[nodiscard]] JsonValue::Object sweepResponse(
    const Request& request, obs::Recorder& recorder,
    const ResultStore::Resolved& resolved, const std::string& exactKey) {
  const auto& result = std::get<ExplorationResult>(*resolved.value);
  JsonValue::Object response;
  response.emplace("ok", true);
  response.emplace("workload", result.workload);
  response.emplace("cached", resolved.source == ResultStore::Source::Hit);
  response.emplace("subset", resolved.source == ResultStore::Source::Subset);
  response.emplace("cache_key", cacheKeyDigest(exactKey));
  response.emplace("points", result.points.size());
  const std::optional<DesignPoint> selected = selectPoint(request, result);
  response.emplace("selected",
                   selected ? pointValue(*selected) : JsonValue(nullptr));
  if (request.includePoints) {
    const obs::ScopedSpan csv(&recorder, "serve.csv");
    response.emplace("csv", toCsvString(result));
  }
  return response;
}

/// Run `body` under the request's "serve.request" span on a recorder of
/// its own, and attach that recorder's report when the request asks.
template <typename Body>
[[nodiscard]] JsonValue withRecorder(const Request& request, Body&& body) {
  obs::Recorder recorder;
  JsonValue::Object response;
  {
    const obs::ScopedSpan span(&recorder, "serve.request");
    response = body(recorder);
  }
  if (request.includeReport) {
    response.emplace("report", reportValue(recorder));
  }
  return JsonValue(std::move(response));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.store) {}

unsigned Server::workerCount() const noexcept {
  if (options_.workers != 0) return options_.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 8u);
}

JsonValue Server::handleExplore(const Request& request) {
  return withRecorder(request, [&](obs::Recorder& recorder) {
    const ResolvedKernel resolved = resolveKernel(request);
    // Constructing the Explorer validates the options; do it before
    // resolving so an invalid request never claims a store key.
    Explorer explorer(request.options);
    explorer.setRecorder(&recorder);

    ResultStore::Key key;
    key.base = "explore|" + resolved.identity + "|" +
               canonicalModelKey(request.options) + "|";
    key.exact = key.base + canonicalRangesKey(request.options.ranges);

    const ResultStore::Resolved served = resolveCounted(
        store_, recorder, key, [&](const ResultStore::Siblings& siblings) {
          // The ordered walk is the one containment test: re-select
          // from the first sibling sweep that holds every key of this
          // request, else sweep in full.
          if (!siblings.empty()) {
            const obs::ScopedSpan select(&recorder, "serve.reselect");
            const std::vector<ConfigKey> keys = explorer.sweepKeys();
            for (const auto& sibling : siblings) {
              auto points = sliceKeys(
                  std::get<ExplorationResult>(*sibling).points, keys);
              if (points) {
                return ResultStore::Computed{
                    ExplorationResult{resolved.kernel.name,
                                      std::move(*points)},
                    true};
              }
            }
          }
          const obs::ScopedSpan compute(&recorder, "serve.compute");
          return ResultStore::Computed{explorer.explore(resolved.kernel),
                                       false};
        });
    return sweepResponse(request, recorder, served, key.exact);
  });
}

JsonValue Server::handleSearch(const Request& request) {
  return withRecorder(request, [&](obs::Recorder& recorder) {
    const ResolvedKernel resolved = resolveKernel(request);
    Explorer explorer(request.options);
    explorer.setRecorder(&recorder);

    search::SearchOptions searchOptions = request.search;
    if (request.jointSpace) {
      searchOptions.space = search::jointSpace(request.options.ranges);
    }

    const ResultStore::Key key{"search|" + resolved.identity + "|" +
                                   canonicalExploreKey(request.options) +
                                   "|" + searchKey(request),
                               ""};
    const ResultStore::Resolved served = resolveCounted(
        store_, recorder, key, [&](const ResultStore::Siblings&) {
          const obs::ScopedSpan compute(&recorder, "serve.compute");
          return ResultStore::Computed{
              explorer.searchPareto(resolved.kernel, searchOptions), false};
        });

    const auto& result = std::get<search::SearchResult>(*served.value);
    JsonValue::Object response;
    response.emplace("ok", true);
    response.emplace("workload", result.workload);
    response.emplace("cached", served.source == ResultStore::Source::Hit);
    response.emplace("cache_key", cacheKeyDigest(key.exact));
    response.emplace("front", result.front.size());
    response.emplace("evaluations", result.evaluations);
    response.emplace("cache_hits", result.cacheHits);
    response.emplace("generations", result.generations);
    response.emplace("space_size", result.spaceSize);
    response.emplace("exact", result.exact);
    if (request.includePoints) {
      const obs::ScopedSpan span(&recorder, "serve.csv");
      std::vector<search::FrontRow> rows;
      rows.reserve(result.front.size());
      for (const search::SearchPoint& p : result.front) {
        rows.push_back(search::toFrontRow(result.workload, p));
      }
      std::ostringstream csv;
      search::writeFrontCsv(csv, rows);
      response.emplace("csv", csv.str());
    }
    return response;
  });
}

JsonValue Server::handleTrace(const Request& request) {
  return withRecorder(request, [&](obs::Recorder& recorder) {
    Explorer optionsCheck(request.options);  // validate before resolving

    const ResultStore::Key key{"tracex|" + traceIdentity(request.tracePath) +
                                   "|" + canonicalExploreKey(request.options) +
                                   "|" + windowKey(request.window),
                               ""};
    const ResultStore::Resolved served = resolveCounted(
        store_, recorder, key, [&](const ResultStore::Siblings&) {
          const obs::ScopedSpan compute(&recorder, "serve.compute");
          FileTraceSource source(request.tracePath);
          return ResultStore::Computed{
              exploreTrace(request.tracePath, source, request.options,
                           request.window, kDefaultTraceChunkRefs, &recorder),
              false};
        });
    return sweepResponse(request, recorder, served, key.exact);
  });
}

JsonValue Server::statsValue() const {
  const ResultStore::Counters counters = store_.counters();
  JsonValue::Object storeStats;
  storeStats.emplace("hits", counters.hits);
  storeStats.emplace("misses", counters.misses);
  storeStats.emplace("subset_hits", counters.subsetHits);
  storeStats.emplace("entries", store_.entries());
  storeStats.emplace("generation", store_.generation());
  JsonValue::Object serverStats;
  serverStats.emplace("workers", workerCount());
  serverStats.emplace("queue_capacity", options_.queueCapacity);
  serverStats.emplace("requests", stats_.requests.load());
  serverStats.emplace("ok", stats_.responsesOk.load());
  serverStats.emplace("errors", stats_.responsesError.load());
  serverStats.emplace("drained", stats_.drained.load());
  JsonValue::Object o;
  o.emplace("ok", true);
  o.emplace("store", JsonValue(std::move(storeStats)));
  o.emplace("server", JsonValue(std::move(serverStats)));
  return JsonValue(std::move(o));
}

JsonValue Server::processValue(const Request& request) {
  JsonValue value;
  try {
    switch (request.op) {
      case RequestOp::Explore:
        value = handleExplore(request);
        break;
      case RequestOp::Search:
        value = handleSearch(request);
        break;
      case RequestOp::Trace:
        value = handleTrace(request);
        break;
      case RequestOp::Stats:
        value = statsValue();
        break;
      case RequestOp::Invalidate: {
        JsonValue::Object o;
        o.emplace("ok", true);
        o.emplace("generation", store_.invalidateAll());
        value = JsonValue(std::move(o));
        break;
      }
      case RequestOp::Ping: {
        JsonValue::Object o;
        o.emplace("ok", true);
        value = JsonValue(std::move(o));
        break;
      }
      case RequestOp::Shutdown: {
        requestDrain();
        JsonValue::Object o;
        o.emplace("ok", true);
        o.emplace("draining", true);
        value = JsonValue(std::move(o));
        break;
      }
    }
  } catch (const std::exception& e) {
    return errorValue(request.id, toString(request.op), e.what());
  }
  JsonValue::Object& object = value.asObject();
  object.emplace("id", request.id);
  object.emplace("op", std::string(toString(request.op)));
  return value;
}

std::variant<Request, JsonValue> Server::admit(const std::string& line,
                                               bool oversized) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (oversized) {
    return errorValue(JsonValue(nullptr), "",
                      "request exceeds " +
                          std::to_string(options_.maxRequestBytes) +
                          " bytes");
  }
  JsonValue root;
  bool parsed = false;
  try {
    root = JsonValue::parse(line);
    parsed = true;
    return parseRequest(root);
  } catch (const std::exception& e) {
    return errorValue(parsed ? idOf(root) : JsonValue(nullptr), "",
                      e.what());
  }
}

std::string Server::finish(const JsonValue& response) {
  const auto& object = response.asObject();
  const auto ok = object.find("ok");
  if (ok != object.end() && ok->second.isBool() && ok->second.asBool()) {
    stats_.responsesOk.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.responsesError.fetch_add(1, std::memory_order_relaxed);
  }
  return response.dump();
}

std::string Server::handleLine(const std::string& line) {
  const auto admitted = admit(line, line.size() > options_.maxRequestBytes);
  const Request* request = std::get_if<Request>(&admitted);
  return finish(request != nullptr ? processValue(*request)
                                   : std::get<JsonValue>(admitted));
}

std::uint64_t Server::run(std::istream& in, std::ostream& out) {
  drainRequested_.store(false, std::memory_order_relaxed);
  shedQueued_.store(false, std::memory_order_relaxed);

  JobQueue<Request> queue(options_.queueCapacity);
  std::mutex writeMutex;
  const auto respond = [&](const JsonValue& response) {
    const std::string line = finish(response);
    const std::lock_guard lock(writeMutex);
    out << line << '\n' << std::flush;
  };

  std::vector<std::thread> workers;
  const unsigned count = workerCount();
  workers.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers.emplace_back([&] {
      Request job;
      while (queue.pop(job)) {
        if (shedQueued_.load(std::memory_order_relaxed)) {
          stats_.drained.fetch_add(1, std::memory_order_relaxed);
          respond(errorValue(job.id, toString(job.op),
                             "server shutting down"));
          continue;
        }
        if (options_.onJobStart) options_.onJobStart(job);
        respond(processValue(job));
      }
    });
  }

  std::uint64_t consumed = 0;
  std::string line;
  bool overflowed = false;
  while (!drainRequested_.load(std::memory_order_relaxed) &&
         readLineBounded(in, line, options_.maxRequestBytes, overflowed)) {
    // Blank lines are keep-alive noise, not requests.
    if (!overflowed && line.empty()) continue;
    ++consumed;
    auto admitted = admit(line, overflowed);
    if (const JsonValue* error = std::get_if<JsonValue>(&admitted)) {
      respond(*error);
      continue;
    }
    Request& request = std::get<Request>(admitted);
    // Control ops answer from the reader thread: they must stay
    // responsive (and shutdown must stop the reader) even when every
    // worker is busy and the queue is full.
    if (request.op == RequestOp::Shutdown) {
      respond(processValue(request));
      break;
    }
    if (request.op == RequestOp::Ping || request.op == RequestOp::Stats ||
        request.op == RequestOp::Invalidate) {
      respond(processValue(request));
      continue;
    }
    if (!queue.push(std::move(request))) break;  // closed by a drain
  }

  // Input ended or drain began. On a drain, queued-but-unstarted jobs
  // are shed with a clean error (shedQueued_); on plain EOF they run
  // to completion — close() lets workers finish the backlog either way.
  queue.close();
  for (std::thread& worker : workers) worker.join();
  return consumed;
}

}  // namespace memx::serve
