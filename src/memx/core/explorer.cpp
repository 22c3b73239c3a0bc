#include "memx/core/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"
#include "memx/util/numeric_io.hpp"
#include "memx/util/pow2_range.hpp"
#include "memx/xform/tiling.hpp"

namespace memx {

std::string toString(SweepBackend backend) {
  return backend == SweepBackend::StackDist ? "stackdist" : "multisim";
}

SweepBackend resolveBackend(const ExploreOptions& options) noexcept {
  // The run-wide fields of every Explorer::configFor() config; geometry
  // never decides eligibility.
  CacheConfig config;
  config.writePolicy = options.writePolicy;
  config.replacement = options.replacement;
  return ConfigBank::stackDistSupports(config) ? SweepBackend::StackDist
                                               : SweepBackend::MultiSim;
}

DesignPoint foldPoint(const ExploreOptions& options,
                      const CycleModel& cycleModel,
                      const CacheConfig& config, std::uint32_t tiling,
                      const CacheStats& stats, double addBs) {
  const CacheEnergyModel energyModel(config, options.energy, addBs);
  DesignPoint point;
  point.key = ConfigKey{config.sizeBytes, config.lineBytes,
                        config.associativity, tiling};
  point.accesses = stats.accesses();
  point.missRate = stats.missRate();
  point.cycles = cycleModel.cycles(stats, config, tiling);
  point.energyNj = options.includeWriteEnergy
                       ? energyModel.totalIncludingWritesNj(stats)
                       : energyModel.totalNj(stats);
  point.energyNj += energyModel.leakageNj(point.cycles);
  return point;
}

std::string canonicalRangesKey(const ExploreRanges& r) {
  std::string key;
  key.reserve(128);
  const auto u = [&](const char* name, std::uint64_t v) {
    key += name;
    key += '=';
    key += std::to_string(v);
    key += ';';
  };
  u("onchip", r.onChipBytes);
  u("minT", r.minCacheBytes);
  u("maxT", r.maxCacheBytes);
  u("minL", r.minLineBytes);
  u("maxL", r.maxLineBytes);
  u("maxS", r.maxAssociativity);
  u("maxB", r.maxTiling);
  u("sweepS", r.sweepAssociativity ? 1 : 0);
  u("sweepB", r.sweepTiling ? 1 : 0);
  return key;
}

std::string canonicalModelKey(const ExploreOptions& options) {
  const EnergyParams& e = options.energy;
  const TimingParams& t = options.timing;
  std::string key;
  key.reserve(256);
  const auto u = [&](const char* name, std::uint64_t v) {
    key += name;
    key += '=';
    key += std::to_string(v);
    key += ';';
  };
  const auto d = [&](const char* name, double v) {
    key += name;
    key += '=';
    appendDouble17(key, v);
    key += ';';
  };
  d("alpha", e.alphaPj);
  d("beta", e.betaPj);
  d("gamma", e.gammaPj);
  d("dact", e.dataActivity);
  d("em", e.emNj);
  u("mainbpa", e.mainBytesPerAccess);
  u("tag", e.includeTagArray ? 1 : 0);
  u("abits", e.addressBits);
  d("leak", e.leakagePjPerBytePerCycle);
  key += "hit=";
  for (const double v : t.hitCyclesByAssoc) {
    appendDouble17(key, v);
    key += ',';
  }
  key += ";miss=";
  for (const double v : t.missCyclesByLine) {
    appendDouble17(key, v);
    key += ',';
  }
  key += ';';
  u("layout", options.optimizeLayout ? 1 : 0);
  u("bus", options.measureBusActivity ? 1 : 0);
  u("wenergy", options.includeWriteEnergy ? 1 : 0);
  key += "wp=" + toString(options.writePolicy) + ";";
  key += "repl=" + toString(options.replacement) + ";";
  key += "backend=" + toString(resolveBackend(options));
  return key;
}

std::string canonicalExploreKey(const ExploreOptions& options) {
  return canonicalRangesKey(options.ranges) + canonicalModelKey(options);
}

void ExploreRanges::validate() const {
  MEMX_EXPECTS(isPow2(onChipBytes) && isPow2(minCacheBytes) &&
                   isPow2(maxCacheBytes) && isPow2(minLineBytes) &&
                   isPow2(maxLineBytes) && isPow2(maxAssociativity) &&
                   isPow2(maxTiling),
               "all sweep bounds must be powers of two");
  MEMX_EXPECTS(minCacheBytes <= maxCacheBytes, "cache range inverted");
  MEMX_EXPECTS(minLineBytes <= maxLineBytes, "line range inverted");
  MEMX_EXPECTS(minLineBytes >= 4,
               "the cycle model tabulates line sizes from 4 bytes");
}

const DesignPoint& ExplorationResult::at(const ConfigKey& key) const {
  const DesignPoint* p = find(key);
  MEMX_EXPECTS(p != nullptr,
               "design point " + key.label() + " was not explored");
  return *p;
}

const DesignPoint* ExplorationResult::find(
    const ConfigKey& key) const noexcept {
  const auto it =
      std::find_if(points.begin(), points.end(),
                   [&](const DesignPoint& p) { return p.key == key; });
  return it == points.end() ? nullptr : &*it;
}

Explorer::Explorer(ExploreOptions options)
    : options_(std::move(options)), cycleModel_(options_.timing) {
  options_.ranges.validate();
  options_.energy.validate();
}

SweepBackend Explorer::resolvedBackend() const noexcept {
  return resolveBackend(options_);
}

std::string Explorer::kernelTag(const Kernel& kernel) const {
  const auto it =
      kernelIds_.try_emplace(structuralIdentity(kernel), kernelIds_.size())
          .first;
  return 'k' + std::to_string(it->second);
}

const MemoryLayout& Explorer::layoutFor(const Kernel& kernel,
                                        const std::string& kernelTag,
                                        const CacheConfig& cache,
                                        std::uint32_t traceTiling,
                                        PatternCache& probes) const {
  // A tight layout does not depend on the cache, so its key drops it.
  const std::string key =
      kernelTag + '|' + (options_.optimizeLayout ? cache.label() : "tight") +
      "|B" + std::to_string(traceTiling);
  const auto it = layoutCache_.find(key);
  if (it != layoutCache_.end()) {
    if (recorder_ != nullptr) recorder_->counter("layout.cache_hit").add();
    return it->second;
  }
  if (recorder_ != nullptr) recorder_->counter("layout.cache_miss").add();
  if (!options_.optimizeLayout) {
    return layoutCache_.emplace(key, sequentialLayout(kernel)).first->second;
  }
  // Candidates are certified against the traversal that will execute:
  // the tiled nest when traceTiling > 1.
  auto probe = probes.find(traceTiling);
  if (probe == probes.end()) {
    AccessPattern pattern =
        traceTiling > 1 ? layoutProbePattern(tile2D(kernel, traceTiling))
                        : layoutProbePattern(kernel);
    probe = probes.emplace(traceTiling, std::move(pattern)).first;
  }
  AssignmentPlan plan = assignConflictFree(kernel, cache, 0, &probe->second);
  if (recorder_ != nullptr) {
    recorder_->counter("layout.candidates_probed").add(plan.candidatesProbed);
    recorder_->counter("layout.probe_refs").add(plan.probeRefs);
  }
  return layoutCache_.emplace(key, std::move(plan.layout)).first->second;
}

CacheConfig Explorer::configFor(const ConfigKey& key) const {
  CacheConfig config;
  config.sizeBytes = key.cacheBytes;
  config.lineBytes = key.lineBytes;
  config.associativity = key.associativity;
  config.writePolicy = options_.writePolicy;
  config.replacement = options_.replacement;
  return config;
}

double Explorer::addrActivityFor(const Trace& trace) const {
  return options_.measureBusActivity ? measureAddrActivity(trace)
                                     : kDefaultAddrSwitchesPerAccess;
}

DesignPoint Explorer::evaluate(const Kernel& kernel,
                               const CacheConfig& cache,
                               std::uint32_t tiling) const {
  const obs::ScopedSpan span(recorder_, "evaluate.point");
  cache.validate();
  MEMX_EXPECTS(tiling >= 1, "tiling size must be at least 1");

  CacheConfig config = cache;
  config.writePolicy = options_.writePolicy;
  config.replacement = options_.replacement;

  const bool tileable = tiling > 1 && kernel.nest.depth() >= 2;
  std::optional<Kernel> tiled;
  if (tileable) tiled = tile2D(kernel, tiling);

  PatternCache probes;
  const MemoryLayout& layout = layoutFor(kernel, kernelTag(kernel), config,
                                        tileable ? tiling : 1, probes);

  const Trace trace =
      tiled ? generateTrace(*tiled, layout) : generateTrace(kernel, layout);

  const CacheStats stats = simulateTrace(config, trace);
  return foldPoint(options_, cycleModel_, config, tiling, stats,
                   addrActivityFor(trace));
}

std::vector<ConfigKey> Explorer::sweepKeys() const {
  const ExploreRanges& r = options_.ranges;
  std::vector<ConfigKey> keys;
  const std::uint32_t maxCache =
      std::min(r.maxCacheBytes, r.onChipBytes);
  for (const std::uint64_t T : pow2Range(r.minCacheBytes, maxCache)) {
    const std::uint64_t maxLine =
        std::min<std::uint64_t>(r.maxLineBytes, T);
    for (const std::uint64_t L : pow2Range(r.minLineBytes, maxLine)) {
      const std::uint64_t lines = T / L;
      const std::uint64_t maxS =
          r.sweepAssociativity
              ? std::min<std::uint64_t>(r.maxAssociativity, lines)
              : 1;
      for (const std::uint64_t S : pow2Range(1, maxS)) {
        const std::uint64_t maxB =
            r.sweepTiling ? std::min<std::uint64_t>(r.maxTiling, lines)
                          : 1;
        for (const std::uint64_t B : pow2Range(1, maxB)) {
          keys.push_back(ConfigKey{static_cast<std::uint32_t>(T),
                                   static_cast<std::uint32_t>(L),
                                   static_cast<std::uint32_t>(S),
                                   static_cast<std::uint32_t>(B)});
        }
      }
    }
  }
  return keys;
}

SweepPlan Explorer::planSweep(const Kernel& kernel,
                              std::vector<ConfigKey> keys) const {
  const obs::ScopedSpan span(recorder_, "planSweep");
  SweepPlan plan;
  plan.keys = std::move(keys);
  // Policies are run-global, so every group of this plan resolves to the
  // same engine; stamping each group keeps evaluateGroup self-contained.
  const SweepBackend backend = resolvedBackend();
  const std::string tag = kernelTag(kernel);
  // Probe prefixes that certify layouts, per trace tiling; the full
  // trace-generating patterns are recorded later, once per group tiling.
  PatternCache probes;
  std::map<std::string, std::size_t> groupIndex;
  for (std::size_t i = 0; i < plan.keys.size(); ++i) {
    const ConfigKey& key = plan.keys[i];
    MEMX_EXPECTS(key.tiling >= 1, "tiling size must be at least 1");
    const CacheConfig config = configFor(key);
    config.validate();

    // Keys whose traversal is untiled (B = 1, or a nest too shallow to
    // tile) share one layout and one pattern regardless of the B they
    // carry.
    const bool tileable = key.tiling > 1 && kernel.nest.depth() >= 2;
    const std::uint32_t traceTiling = tileable ? key.tiling : 1;
    const MemoryLayout& layout =
        layoutFor(kernel, tag, config, traceTiling, probes);

    const std::string traceKey = tag + "|B" + std::to_string(traceTiling) +
                                 '|' + layout.signature();
    const auto [it, inserted] =
        groupIndex.try_emplace(traceKey, plan.groups.size());
    if (inserted) {
      plan.groups.push_back(
          SweepPlan::Group{traceTiling, traceKey, &layout, {}, backend});
    }
    plan.groups[it->second].keyIndices.push_back(i);
  }
  if (recorder_ != nullptr) {
    recorder_->counter("plan.keys").add(plan.keys.size());
    recorder_->counter("plan.groups").add(plan.groups.size());
  }
  return plan;
}

Trace Explorer::buildGroupTrace(const Kernel& kernel,
                                const SweepPlan::Group& group,
                                PatternCache& patterns) const {
  const obs::ScopedSpan span(recorder_, "trace.build");
  auto it = patterns.find(group.traceTiling);
  if (it == patterns.end()) {
    if (recorder_ != nullptr) recorder_->counter("pattern.cache_miss").add();
    AccessPattern pattern =
        group.traceTiling > 1
            ? generateAccessPattern(tile2D(kernel, group.traceTiling))
            : generateAccessPattern(kernel);
    it = patterns.emplace(group.traceTiling, std::move(pattern)).first;
  } else if (recorder_ != nullptr) {
    recorder_->counter("pattern.cache_hit").add();
  }
  Trace trace = materializeTrace(it->second, *group.layout);
  if (recorder_ != nullptr) {
    recorder_->counter("trace.accesses").add(trace.size());
    recorder_->counter("trace.bytes").add(trace.size() * sizeof(MemRef));
  }
  return trace;
}

void Explorer::evaluateGroup(const SweepPlan::Group& group,
                             const Trace& trace, double addrActivity,
                             const std::vector<ConfigKey>& keys,
                             std::vector<DesignPoint>& out) const {
  const obs::ScopedSpan span(recorder_, "group.evaluate");
  std::vector<CacheConfig> configs;
  configs.reserve(group.keyIndices.size());
  for (const std::size_t idx : group.keyIndices) {
    configs.push_back(configFor(keys[idx]));
  }
  ConfigBank bank(group.backend, configs);
  bank.run(trace);
  bank.record(recorder_);
  for (std::size_t j = 0; j < group.keyIndices.size(); ++j) {
    const std::size_t idx = group.keyIndices[j];
    out[idx] = foldPoint(options_, cycleModel_, configs[j], keys[idx].tiling,
                         bank.stats(j), addrActivity);
  }
}

namespace {

/// The one sweep loop behind explore() and exploreParallel(): plan on
/// the calling thread (it fills the layout memo the group pointers
/// alias), then drain the group queue with `threads` workers — on the
/// calling thread itself when threads == 1. Each group's trace is
/// materialized, evaluated and dropped; patterns are memoized per
/// worker, so the nest walk happens at most once per distinct tiling
/// per worker.
ExplorationResult drainSweep(const Explorer& grid, const Kernel& kernel,
                             unsigned threads) {
  obs::Recorder* const recorder = grid.recorder();
  const SweepPlan plan = grid.planSweep(kernel, grid.sweepKeys());
  threads = std::min<unsigned>(
      threads, static_cast<unsigned>(std::max<std::size_t>(
                   1, plan.groups.size())));
  if (recorder != nullptr) {
    recorder->counter("parallel.workers").add(threads);
  }

  std::vector<DesignPoint> points(plan.keys.size());
  std::atomic<std::size_t> nextGroup{0};
  std::atomic<bool> failed{false};
  const auto drain = [&] {
    // One span per worker covering its whole queue drain: the exported
    // timeline shows each worker's share of the group queue, and the
    // report folds these into per-worker busy time and utilization.
    const obs::ScopedSpan span(recorder, "worker.drain");
    Explorer::PatternCache patterns;
    for (;;) {
      const std::size_t g = nextGroup.fetch_add(1, std::memory_order_relaxed);
      if (g >= plan.groups.size() || failed.load(std::memory_order_relaxed)) {
        break;
      }
      if (recorder != nullptr) {
        recorder->counter("parallel.groups_claimed").add();
      }
      const SweepPlan::Group& group = plan.groups[g];
      const Trace trace = grid.buildGroupTrace(kernel, group, patterns);
      grid.evaluateGroup(group, trace, grid.addrActivityFor(trace),
                         plan.keys, points);
    }
  };

  if (threads == 1) {
    drain();
  } else {
    // Exceptions are captured per worker and the first is rethrown on
    // the calling thread after all workers joined, so none reaches a
    // thread boundary.
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          drain();
        } catch (...) {
          errors[t] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  ExplorationResult result;
  result.workload = kernel.name;
  result.points = std::move(points);
  return result;
}

}  // namespace

ExplorationResult Explorer::explore(const Kernel& kernel) const {
  const obs::ScopedSpan span(recorder_, "explore");
  return drainSweep(*this, kernel, 1);
}

ExplorationResult exploreParallel(const Kernel& kernel,
                                  const ExploreOptions& options,
                                  unsigned threads) {
  const Explorer grid(options);
  return exploreParallel(grid, kernel, threads);
}

ExplorationResult exploreParallel(const Explorer& grid, const Kernel& kernel,
                                  unsigned threads) {
  const obs::ScopedSpan span(grid.recorder(), "exploreParallel");
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return drainSweep(grid, kernel, threads);
}

}  // namespace memx
