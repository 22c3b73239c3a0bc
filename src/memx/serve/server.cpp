#include "memx/serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
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

struct StoreUse {
  std::shared_ptr<const StoredResult> value;
  bool cached = false;  ///< served from a ready entry
  bool subset = false;  ///< re-selected from a covering parent
};

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.store) {}

unsigned Server::workerCount() const noexcept {
  if (options_.workers != 0) return options_.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 8u);
}

JsonValue Server::handleExplore(const Request& request) {
  obs::Recorder recorder;
  StoreUse use;
  JsonValue::Object response;
  {
    const obs::ScopedSpan span(&recorder, "serve.request");
    const ResolvedKernel resolved = resolveKernel(request);
    // Constructing the Explorer validates the options; do it before
    // claiming store leadership so an invalid request never leaves a
    // pending slot behind.
    Explorer explorer(request.options);
    explorer.setRecorder(&recorder);

    ResultStore::Key key;
    key.base = "explore|" + resolved.identity + "|" +
               canonicalModelKey(request.options) + "|";
    key.exact = key.base + canonicalRangesKey(request.options.ranges);
    key.ranges = request.options.ranges;

    const ResultStore::Outcome outcome = store_.get(key);
    if (outcome.value != nullptr) {
      use = {outcome.value, true, false};
      recorder.counter("serve.store_hits").add();
    } else {
      try {
        if (outcome.parent != nullptr && outcome.parent->explore != nullptr) {
          // Covering-range candidate: re-select instead of re-simulating.
          // Both key lists are in sweepKeys() order, so one ordered walk
          // over the parent finds every key of this request, or shows
          // one missing. Bit-identical by the canonical-key contract
          // (equal model keys => equal points per sweep key).
          const obs::ScopedSpan select(&recorder, "serve.reselect");
          const std::vector<DesignPoint>& parent =
              outcome.parent->explore->points;
          const std::vector<ConfigKey> keys = explorer.sweepKeys();
          auto sliced = std::make_shared<ExplorationResult>();
          sliced->workload = resolved.kernel.name;
          sliced->points.reserve(keys.size());
          auto next = parent.begin();
          for (const ConfigKey& k : keys) {
            while (next != parent.end() && next->key != k) ++next;
            if (next == parent.end()) break;
            sliced->points.push_back(*next++);
          }
          if (sliced->points.size() == keys.size()) {
            auto stored = std::make_shared<StoredResult>();
            stored->explore = std::move(sliced);
            use = {stored, false, true};
            recorder.counter("serve.store_subset_hits").add();
            store_.countSubsetHit();
            store_.publish(key.exact, outcome.generation, std::move(stored));
          }
        }
        if (use.value == nullptr) {
          const obs::ScopedSpan compute(&recorder, "serve.compute");
          auto computed = std::make_shared<ExplorationResult>(
              explorer.explore(resolved.kernel));
          auto stored = std::make_shared<StoredResult>();
          stored->explore = std::move(computed);
          use = {stored, false, false};
          recorder.counter("serve.store_misses").add();
          store_.countMiss();
          store_.publish(key.exact, outcome.generation, std::move(stored));
        }
      } catch (...) {
        store_.fail(key.exact, outcome.generation);
        throw;
      }
    }

    const ExplorationResult& result = *use.value->explore;
    response.emplace("ok", true);
    response.emplace("workload", result.workload);
    response.emplace("cached", use.cached);
    response.emplace("subset", use.subset);
    response.emplace("cache_key", cacheKeyDigest(key.exact));
    response.emplace("points", result.points.size());
    const std::optional<DesignPoint> selected = selectPoint(request, result);
    response.emplace("selected",
                     selected ? pointValue(*selected) : JsonValue(nullptr));
    if (request.includePoints) {
      response.emplace("csv", toCsvString(result));
    }
  }
  if (request.includeReport) {
    response.emplace("report", reportValue(recorder));
  }
  return JsonValue(std::move(response));
}

JsonValue Server::handleSearch(const Request& request) {
  obs::Recorder recorder;
  StoreUse use;
  JsonValue::Object response;
  {
    const obs::ScopedSpan span(&recorder, "serve.request");
    const ResolvedKernel resolved = resolveKernel(request);
    Explorer explorer(request.options);
    explorer.setRecorder(&recorder);

    search::SearchOptions searchOptions = request.search;
    if (request.jointSpace) {
      // Mirror the CLI's --joint space: every policy pair, both layout
      // choices, and an optional L2 at 4x the largest L1 capacity.
      search::DesignSpaceOptions space;
      space.ranges = request.options.ranges;
      space.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                            ReplacementPolicy::Random,
                            ReplacementPolicy::TreePLRU};
      space.writePolicies = {WritePolicy::WriteBack,
                             WritePolicy::WriteThrough};
      space.sweepLayout = true;
      space.l2CapacityBytes = {4 * space.ranges.maxCacheBytes};
      searchOptions.space = space;
    }

    ResultStore::Key key;
    key.exact = "search|" + resolved.identity + "|" +
                canonicalExploreKey(request.options) + "|" +
                searchKey(request);

    const ResultStore::Outcome outcome = store_.get(key);
    if (outcome.value != nullptr) {
      use = {outcome.value, true, false};
      recorder.counter("serve.store_hits").add();
    } else {
      try {
        const obs::ScopedSpan compute(&recorder, "serve.compute");
        auto stored = std::make_shared<StoredResult>();
        stored->search = std::make_shared<const search::SearchResult>(
            explorer.searchPareto(resolved.kernel, searchOptions));
        use = {stored, false, false};
        recorder.counter("serve.store_misses").add();
        store_.countMiss();
        store_.publish(key.exact, outcome.generation, std::move(stored));
      } catch (...) {
        store_.fail(key.exact, outcome.generation);
        throw;
      }
    }

    const search::SearchResult& result = *use.value->search;
    response.emplace("ok", true);
    response.emplace("workload", result.workload);
    response.emplace("cached", use.cached);
    response.emplace("cache_key", cacheKeyDigest(key.exact));
    response.emplace("front", result.front.size());
    response.emplace("evaluations", result.evaluations);
    response.emplace("cache_hits", result.cacheHits);
    response.emplace("generations", result.generations);
    response.emplace("space_size", result.spaceSize);
    response.emplace("exact", result.exact);
    if (request.includePoints) {
      std::vector<search::FrontRow> rows;
      rows.reserve(result.front.size());
      for (const search::SearchPoint& p : result.front) {
        rows.push_back(search::toFrontRow(result.workload, p));
      }
      std::ostringstream csv;
      search::writeFrontCsv(csv, rows);
      response.emplace("csv", csv.str());
    }
  }
  if (request.includeReport) {
    response.emplace("report", reportValue(recorder));
  }
  return JsonValue(std::move(response));
}

JsonValue Server::handleTrace(const Request& request) {
  obs::Recorder recorder;
  StoreUse use;
  JsonValue::Object response;
  {
    const obs::ScopedSpan span(&recorder, "serve.request");
    Explorer optionsCheck(request.options);  // validate before leadership

    ResultStore::Key key;
    key.exact = "tracex|" + traceIdentity(request.tracePath) + "|" +
                canonicalExploreKey(request.options) + "|" +
                windowKey(request.window);

    const ResultStore::Outcome outcome = store_.get(key);
    if (outcome.value != nullptr) {
      use = {outcome.value, true, false};
      recorder.counter("serve.store_hits").add();
    } else {
      try {
        const obs::ScopedSpan compute(&recorder, "serve.compute");
        FileTraceSource source(request.tracePath);
        auto computed = std::make_shared<ExplorationResult>(
            exploreTrace(request.tracePath, source, request.options,
                         request.window, kDefaultTraceChunkRefs, &recorder));
        auto stored = std::make_shared<StoredResult>();
        stored->explore = std::move(computed);
        use = {stored, false, false};
        recorder.counter("serve.store_misses").add();
        store_.countMiss();
        store_.publish(key.exact, outcome.generation, std::move(stored));
      } catch (...) {
        store_.fail(key.exact, outcome.generation);
        throw;
      }
    }

    const ExplorationResult& result = *use.value->explore;
    response.emplace("ok", true);
    response.emplace("workload", result.workload);
    response.emplace("cached", use.cached);
    response.emplace("subset", false);
    response.emplace("cache_key", cacheKeyDigest(key.exact));
    response.emplace("points", result.points.size());
    const std::optional<DesignPoint> selected = selectPoint(request, result);
    response.emplace("selected",
                     selected ? pointValue(*selected) : JsonValue(nullptr));
    if (request.includePoints) {
      response.emplace("csv", toCsvString(result));
    }
  }
  if (request.includeReport) {
    response.emplace("report", reportValue(recorder));
  }
  return JsonValue(std::move(response));
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

std::string Server::handleLine(const std::string& line) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  JsonValue response;
  if (line.size() > options_.maxRequestBytes) {
    response = errorValue(JsonValue(nullptr), "",
                          "request exceeds " +
                              std::to_string(options_.maxRequestBytes) +
                              " bytes");
  } else {
    JsonValue root;
    bool parsed = false;
    try {
      root = JsonValue::parse(line);
      parsed = true;
      response = processValue(parseRequest(root));
    } catch (const std::exception& e) {
      response = errorValue(parsed ? idOf(root) : JsonValue(nullptr), "",
                            e.what());
    }
  }
  const auto& object = response.asObject();
  const auto ok = object.find("ok");
  if (ok != object.end() && ok->second.isBool() && ok->second.asBool()) {
    stats_.responsesOk.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.responsesError.fetch_add(1, std::memory_order_relaxed);
  }
  return response.dump();
}

std::uint64_t Server::run(std::istream& in, std::ostream& out) {
  drainRequested_.store(false, std::memory_order_relaxed);
  shedQueued_.store(false, std::memory_order_relaxed);

  JobQueue<Request> queue(options_.queueCapacity);
  std::mutex writeMutex;
  const auto respond = [&](const JsonValue& response) {
    const auto& object = response.asObject();
    const auto ok = object.find("ok");
    if (ok != object.end() && ok->second.isBool() && ok->second.asBool()) {
      stats_.responsesOk.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.responsesError.fetch_add(1, std::memory_order_relaxed);
    }
    const std::string line = response.dump();
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
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    if (overflowed) {
      respond(errorValue(JsonValue(nullptr), "",
                         "request exceeds " +
                             std::to_string(options_.maxRequestBytes) +
                             " bytes"));
      continue;
    }
    Request request;
    JsonValue root;
    bool parsed = false;
    try {
      root = JsonValue::parse(line);
      parsed = true;
      request = parseRequest(root);
    } catch (const std::exception& e) {
      respond(errorValue(parsed ? idOf(root) : JsonValue(nullptr), "",
                         e.what()));
      continue;
    }
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
