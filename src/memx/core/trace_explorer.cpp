#include "memx/core/trace_explorer.hpp"

#include <utility>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/timing/cycle_model.hpp"

namespace memx {

namespace {

/// Tees every delivered reference into a BusMonitor (when measuring bus
/// activity) on its way to the replay loop, so the streamed path gets
/// Add_bs from the same single pass instead of a second trace scan.
/// Each filled span is observed in stream order, on whichever thread
/// decodes (the streamed loop's decode task).
class MeterSource final : public TraceSource {
public:
  MeterSource(TraceSource& inner, BusMonitor* bus)
      : inner_(&inner), bus_(bus) {}

  [[nodiscard]] std::optional<MemRef> next() override {
    return nextFromFill();
  }
  [[nodiscard]] std::size_t fill(MemRef* out, std::size_t max) override {
    const std::size_t got = inner_->fill(out, max);
    if (bus_ != nullptr) {
      for (std::size_t i = 0; i < got; ++i) bus_->observe(out[i]);
    }
    return got;
  }
  [[nodiscard]] IngestStats ingest() const override {
    return inner_->ingest();
  }

private:
  TraceSource* inner_;
  BusMonitor* bus_;
};

/// What a replay leaves besides the bank's state: each member's
/// counted statistics are its bank stats minus `base`.
struct Replay {
  std::vector<CacheStats> base;  ///< per-member warmup-boundary snapshot
  double addBs = 0.0;            ///< counted-region Add_bs
};

/// Replay an in-memory trace through `bank`: no copy, no per-reference
/// pull.
Replay replayTrace(ConfigBank& bank, const Trace& trace,
                   const ExploreOptions& options) {
  bank.run(trace);
  return {std::vector<CacheStats>(bank.size()),
          options.measureBusActivity ? measureAddrActivity(trace)
                                     : kDefaultAddrSwitchesPerAccess};
}

/// Drive `bank` from `source` under `window`. Warmup exclusion is a
/// snapshot subtraction: every CacheStats and BusStats field is an
/// additive accumulator, so counted = end - warmup boundary.
Replay replayStreamed(ConfigBank& bank, TraceSource& source,
                      const TraceWindow& window,
                      const ExploreOptions& options, std::size_t chunkRefs,
                      obs::Recorder* recorder) {
  obs::ScopedSpan ingestSpan(recorder, "trace.ingest");
  const IngestStats ingestBase = source.ingest();

  WindowedSource windowed(source, window);
  BusMonitor bus;
  MeterSource metered(windowed,
                      options.measureBusActivity ? &bus : nullptr);

  std::vector<CacheStats> base(bank.size());
  BusStats busBase;
  if (window.warmup > 0) {
    obs::ScopedSpan warmSpan(recorder, "trace.warmup");
    WindowedSource warm(metered, TraceWindow{0, 0, window.warmup});
    bank.run(warm, chunkRefs);
    for (std::size_t i = 0; i < bank.size(); ++i) base[i] = bank.stats(i);
    busBase = bus.stats();
  }
  {
    obs::ScopedSpan replaySpan(recorder, "trace.replay");
    bank.run(metered, chunkRefs);
  }

  if (recorder != nullptr) {
    const IngestStats ingestEnd = source.ingest();
    recorder->counter("trace.bytes_read")
        .add(ingestEnd.bytesRead - ingestBase.bytesRead);
    recorder->counter("trace.refs_decoded")
        .add(ingestEnd.refsDecoded - ingestBase.refsDecoded);
    bank.record(recorder);
  }

  Replay out{std::move(base), 0.0};
  if (!options.measureBusActivity) {
    out.addBs = kDefaultAddrSwitchesPerAccess;
    return out;
  }
  const BusStats busEnd = bus.stats();
  const std::uint64_t busAccesses = busEnd.accesses - busBase.accesses;
  // With a trivial window this division is bit-for-bit the one
  // measureAddrActivity performs, keeping streamed DesignPoints
  // identical to the materialized path.
  out.addBs =
      busAccesses == 0
          ? 0.0
          : static_cast<double>(busEnd.addrBitSwitches -
                                busBase.addrBitSwitches) /
                static_cast<double>(busAccesses);
  return out;
}

/// Replay through one bank over `configs` on `backend` and fold every
/// member. Tiling is not applicable to a fixed trace: B = 1.
template <typename Feed>
std::vector<DesignPoint> foldTrace(const ExploreOptions& options,
                                   SweepBackend backend,
                                   const std::vector<CacheConfig>& configs,
                                   Feed&& feed) {
  ConfigBank bank(backend, configs);
  const Replay replay = feed(bank);
  const CycleModel cycleModel(options.timing);
  std::vector<DesignPoint> points;
  points.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    points.push_back(foldPoint(options, cycleModel, configs[i], 1,
                               bank.stats(i) - replay.base[i],
                               replay.addBs));
  }
  return points;
}

/// One configuration with the run's policies applied, evaluated by a
/// one-member simulation bank (the same default seed a standalone
/// simulateTrace uses).
template <typename Feed>
DesignPoint evaluatePoint(const CacheConfig& cache,
                          const ExploreOptions& options, Feed&& feed) {
  cache.validate();
  options.energy.validate();
  CacheConfig config = cache;
  config.writePolicy = options.writePolicy;
  config.replacement = options.replacement;
  return foldTrace(options, SweepBackend::MultiSim, {config}, feed).front();
}

/// Every (T, L, S) of `options.ranges` as one bank on the resolved
/// backend: a single replay, with the bus activity measured once
/// instead of per point.
template <typename Feed>
ExplorationResult sweepTrace(const std::string& name,
                             const ExploreOptions& options, Feed&& feed) {
  ExploreOptions o = options;
  o.ranges.sweepTiling = false;
  const Explorer grid(o);  // reuse the sweep-key generator; validates

  ExplorationResult result;
  result.workload = name;
  std::vector<CacheConfig> configs;
  for (const ConfigKey& key : grid.sweepKeys()) {
    configs.push_back(grid.configFor(key));
  }
  if (!configs.empty()) {
    result.points = foldTrace(o, grid.resolvedBackend(), configs, feed);
  }
  return result;
}

}  // namespace

DesignPoint evaluateTracePoint(const Trace& trace, const CacheConfig& cache,
                               const ExploreOptions& options) {
  return evaluatePoint(cache, options, [&](ConfigBank& bank) {
    return replayTrace(bank, trace, options);
  });
}

ExplorationResult exploreTrace(const std::string& name, const Trace& trace,
                               const ExploreOptions& options) {
  return sweepTrace(name, options, [&](ConfigBank& bank) {
    return replayTrace(bank, trace, options);
  });
}

DesignPoint evaluateTracePoint(TraceSource& source, const CacheConfig& cache,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  return evaluatePoint(cache, options, [&](ConfigBank& bank) {
    return replayStreamed(bank, source, window, options, chunkRefs,
                          recorder);
  });
}

ExplorationResult exploreTrace(const std::string& name, TraceSource& source,
                               const ExploreOptions& options,
                               const TraceWindow& window,
                               std::size_t chunkRefs,
                               obs::Recorder* recorder) {
  return sweepTrace(name, options, [&](ConfigBank& bank) {
    return replayStreamed(bank, source, window, options, chunkRefs,
                          recorder);
  });
}

}  // namespace memx
