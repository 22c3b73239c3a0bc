#include "memx/serve/protocol.hpp"

#include <limits>

#include "memx/cachesim/cache_config.hpp"

namespace memx::serve {

namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void badField(const std::string& field, const std::string& why) {
  throw ServeError("request field '" + field + "': " + why);
}

/// Strict object walker: every key must be consumed by a handler.
class Fields {
public:
  Fields(const JsonValue& value, std::string path)
      : path_(std::move(path)) {
    if (!value.isObject()) {
      badField(path_, "must be a JSON object");
    }
    object_ = &value.asObject();
  }

  [[nodiscard]] const JsonValue* get(const std::string& key) {
    consumed_.push_back(key);
    const auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
  }

  /// Call after all get()s: rejects any key no handler asked for.
  void finish() const {
    for (const auto& [key, value] : *object_) {
      bool known = false;
      for (const std::string& c : consumed_) {
        if (c == key) {
          known = true;
          break;
        }
      }
      if (!known) {
        badField(path_.empty() ? key : path_ + "." + key, "unknown field");
      }
    }
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
  const JsonValue::Object* object_;
  std::string path_;
  std::vector<std::string> consumed_;
};

[[nodiscard]] std::string fieldPath(const Fields& fields,
                                    const std::string& key) {
  return fields.path().empty() ? key : fields.path() + "." + key;
}

[[nodiscard]] std::string requireString(Fields& fields,
                                        const JsonValue& value,
                                        const std::string& key) {
  if (!value.isString()) badField(fieldPath(fields, key), "must be a string");
  return value.asString();
}

[[nodiscard]] bool requireBool(Fields& fields, const JsonValue& value,
                               const std::string& key) {
  if (!value.isBool()) badField(fieldPath(fields, key), "must be a boolean");
  return value.asBool();
}

[[nodiscard]] std::uint64_t requireUnsigned(Fields& fields,
                                            const JsonValue& value,
                                            const std::string& key,
                                            std::uint64_t max) {
  if (!value.isNumber()) badField(fieldPath(fields, key), "must be a number");
  try {
    return value.asUnsigned(max);
  } catch (const JsonError& e) {
    badField(fieldPath(fields, key), e.what());
  }
}

[[nodiscard]] double requireFinite(Fields& fields, const JsonValue& value,
                                   const std::string& key) {
  if (!value.isNumber()) badField(fieldPath(fields, key), "must be a number");
  return value.asNumber();  // parser already guarantees finite
}

void parseRanges(const JsonValue& value, ExploreRanges& ranges) {
  Fields fields(value, "options.ranges");
  const auto u32 = [&](const char* key, std::uint32_t& out) {
    if (const JsonValue* v = fields.get(key)) {
      out = static_cast<std::uint32_t>(requireUnsigned(fields, *v, key, kU32Max));
    }
  };
  u32("on_chip_bytes", ranges.onChipBytes);
  u32("min_cache_bytes", ranges.minCacheBytes);
  u32("max_cache_bytes", ranges.maxCacheBytes);
  u32("min_line_bytes", ranges.minLineBytes);
  u32("max_line_bytes", ranges.maxLineBytes);
  u32("max_associativity", ranges.maxAssociativity);
  u32("max_tiling", ranges.maxTiling);
  if (const JsonValue* v = fields.get("sweep_associativity")) {
    ranges.sweepAssociativity = requireBool(fields, *v, "sweep_associativity");
  }
  if (const JsonValue* v = fields.get("sweep_tiling")) {
    ranges.sweepTiling = requireBool(fields, *v, "sweep_tiling");
  }
  fields.finish();
}

void parseOptions(const JsonValue& value, ExploreOptions& options) {
  Fields fields(value, "options");
  if (const JsonValue* v = fields.get("em_nj")) {
    options.energy.emNj = requireFinite(fields, *v, "em_nj");
  }
  if (const JsonValue* v = fields.get("leakage_pj")) {
    options.energy.leakagePjPerBytePerCycle =
        requireFinite(fields, *v, "leakage_pj");
  }
  if (const JsonValue* v = fields.get("optimize_layout")) {
    options.optimizeLayout = requireBool(fields, *v, "optimize_layout");
  }
  if (const JsonValue* v = fields.get("measure_bus")) {
    options.measureBusActivity = requireBool(fields, *v, "measure_bus");
  }
  if (const JsonValue* v = fields.get("write_energy")) {
    options.includeWriteEnergy = requireBool(fields, *v, "write_energy");
  }
  if (const JsonValue* v = fields.get("write_policy")) {
    const std::string name = requireString(fields, *v, "write_policy");
    if (name == "write-back") {
      options.writePolicy = WritePolicy::WriteBack;
    } else if (name == "write-through") {
      options.writePolicy = WritePolicy::WriteThrough;
    } else {
      badField("options.write_policy",
               "expected \"write-back\" or \"write-through\"");
    }
  }
  if (const JsonValue* v = fields.get("replacement")) {
    const std::string name = requireString(fields, *v, "replacement");
    if (name == "LRU") {
      options.replacement = ReplacementPolicy::LRU;
    } else if (name == "FIFO") {
      options.replacement = ReplacementPolicy::FIFO;
    } else if (name == "Random") {
      options.replacement = ReplacementPolicy::Random;
    } else if (name == "TreePLRU") {
      options.replacement = ReplacementPolicy::TreePLRU;
    } else {
      badField("options.replacement",
               "expected \"LRU\", \"FIFO\", \"Random\" or \"TreePLRU\"");
    }
  }
  if (const JsonValue* v = fields.get("ranges")) {
    parseRanges(*v, options.ranges);
  }
  fields.finish();
}

void parseSelection(const JsonValue& value, Request& request) {
  Fields fields(value, "selection");
  if (const JsonValue* v = fields.get("metric")) {
    const std::string name = requireString(fields, *v, "metric");
    if (name == "min_energy") {
      request.metric = SelectionMetric::MinEnergy;
    } else if (name == "min_cycles") {
      request.metric = SelectionMetric::MinCycles;
    } else if (name == "min_edp") {
      request.metric = SelectionMetric::MinEdp;
    } else {
      badField("selection.metric",
               "expected \"min_energy\", \"min_cycles\" or \"min_edp\"");
    }
  }
  if (const JsonValue* v = fields.get("cycle_bound")) {
    request.cycleBound = requireFinite(fields, *v, "cycle_bound");
  }
  if (const JsonValue* v = fields.get("energy_bound")) {
    request.energyBound = requireFinite(fields, *v, "energy_bound");
  }
  fields.finish();
}

void parseSearch(const JsonValue& value, Request& request) {
  Fields fields(value, "search");
  if (const JsonValue* v = fields.get("seed")) {
    request.search.seed = requireUnsigned(fields, *v, "seed", kU64Max);
  }
  if (const JsonValue* v = fields.get("pop")) {
    request.search.populationSize =
        static_cast<std::uint32_t>(requireUnsigned(fields, *v, "pop", kU32Max));
  }
  if (const JsonValue* v = fields.get("gens")) {
    request.search.generations = static_cast<std::uint32_t>(
        requireUnsigned(fields, *v, "gens", kU32Max));
  }
  if (const JsonValue* v = fields.get("budget")) {
    request.search.maxEvaluations =
        requireUnsigned(fields, *v, "budget", kU64Max);
  }
  if (const JsonValue* v = fields.get("joint")) {
    request.jointSpace = requireBool(fields, *v, "joint");
  }
  fields.finish();
}

void parseWindow(const JsonValue& value, TraceWindow& window) {
  Fields fields(value, "window");
  if (const JsonValue* v = fields.get("skip")) {
    window.skip = requireUnsigned(fields, *v, "skip", kU64Max);
  }
  if (const JsonValue* v = fields.get("warmup")) {
    window.warmup = requireUnsigned(fields, *v, "warmup", kU64Max);
  }
  if (const JsonValue* v = fields.get("limit")) {
    window.limit = requireUnsigned(fields, *v, "limit", kU64Max);
  }
  fields.finish();
}

}  // namespace

std::string_view toString(RequestOp op) noexcept {
  switch (op) {
    case RequestOp::Explore: return "explore";
    case RequestOp::Search: return "search";
    case RequestOp::Trace: return "trace";
    case RequestOp::Stats: return "stats";
    case RequestOp::Invalidate: return "invalidate";
    case RequestOp::Ping: return "ping";
    case RequestOp::Shutdown: return "shutdown";
  }
  return "unknown";
}

RequestOp parseRequestOp(const std::string& name) {
  if (name == "explore") return RequestOp::Explore;
  if (name == "search") return RequestOp::Search;
  if (name == "trace") return RequestOp::Trace;
  if (name == "stats") return RequestOp::Stats;
  if (name == "invalidate") return RequestOp::Invalidate;
  if (name == "ping") return RequestOp::Ping;
  if (name == "shutdown") return RequestOp::Shutdown;
  throw ServeError("unknown op '" + name +
                   "'; expected explore, search, trace, stats, invalidate, "
                   "ping or shutdown");
}

Request parseRequest(const JsonValue& root) {
  Request request;
  Fields fields(root, "");

  if (const JsonValue* v = fields.get("id")) request.id = *v;

  const JsonValue* op = fields.get("op");
  if (op == nullptr) badField("op", "required");
  request.op = parseRequestOp(requireString(fields, *op, "op"));

  if (const JsonValue* v = fields.get("workload")) {
    request.workload = requireString(fields, *v, "workload");
  }
  if (const JsonValue* v = fields.get("kernel_src")) {
    request.kernelSource = requireString(fields, *v, "kernel_src");
  }
  if (const JsonValue* v = fields.get("trace")) {
    request.tracePath = requireString(fields, *v, "trace");
  }
  if (const JsonValue* v = fields.get("window")) {
    parseWindow(*v, request.window);
  }
  if (const JsonValue* v = fields.get("options")) {
    parseOptions(*v, request.options);
  }
  if (const JsonValue* v = fields.get("selection")) {
    parseSelection(*v, request);
  }
  if (const JsonValue* v = fields.get("search")) {
    parseSearch(*v, request);
  }
  if (const JsonValue* v = fields.get("include_points")) {
    request.includePoints = requireBool(fields, *v, "include_points");
  }
  if (const JsonValue* v = fields.get("include_report")) {
    request.includeReport = requireBool(fields, *v, "include_report");
  }
  fields.finish();

  // Cross-field requirements, by op.
  const bool kernelOp =
      request.op == RequestOp::Explore || request.op == RequestOp::Search;
  if (kernelOp) {
    if (request.workload.empty() && request.kernelSource.empty()) {
      throw ServeError(std::string(toString(request.op)) +
                       " needs 'workload' or 'kernel_src'");
    }
    if (!request.workload.empty() && !request.kernelSource.empty()) {
      throw ServeError("'workload' and 'kernel_src' are mutually exclusive");
    }
  }
  if (request.op == RequestOp::Trace && request.tracePath.empty()) {
    throw ServeError("trace needs 'trace' (a .din[.gz] path)");
  }
  return request;
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string cacheKeyDigest(std::string_view canonicalKey) {
  constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t hash = fnv1a64(canonicalKey);
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kHex[(hash >> (4 * i)) & 0xF];
  }
  return out;
}

}  // namespace memx::serve
