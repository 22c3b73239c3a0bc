// The MemExplore algorithm (paper Section 1):
//
//   for on-chip memory size M (powers of 2)
//     for cache size T <= M
//       for line size L <= T
//         for set associativity S <= 8
//           for tiling size B <= T/L
//             estimate cycles C and energy E
//   select (T, L, S, B) maximizing performance under the given bounds.
//
// Every point is evaluated by trace-driven simulation of the (optionally
// tiled) kernel under the chosen off-chip layout, then run through the
// paper's cycle and energy models.
//
// Every sweep surface runs one pipeline: source -> plan -> bank -> fold.
// The trace of a design point depends only on the tiling B and the memory
// layout, so planSweep() groups the (T, L, S, B) grid by (B, layout
// signature); explore() and exploreParallel() drain the groups, feeding
// each group's trace once through a ConfigBank (core/config_bank.hpp)
// and dropping it. Fixed-trace sweeps (core/trace_explorer.hpp) feed the
// same bank. foldPoint() turns every member's statistics into a point.
// The bank's engine is resolveBackend(options): simulation, or one
// stack-distance / policy-grid profile per line size serving every
// (T, S) at once (LRU, FIFO and tree-PLRU, both write policies). Results
// are bit-identical to evaluating each point in isolation either way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "memx/cachesim/cache_stats.hpp"
#include "memx/core/design_point.hpp"
#include "memx/energy/energy_model.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/loopir/memory_layout.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/timing/cycle_model.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

namespace obs {
class Recorder;
}  // namespace obs

namespace search {
struct SearchOptions;
struct SearchResult;
}  // namespace search

/// Power-of-two sweep bounds of the MemExplore loops.
struct ExploreRanges {
  std::uint32_t onChipBytes = 1024;   ///< M: upper limit on cache size
  std::uint32_t minCacheBytes = 16;   ///< smallest T
  std::uint32_t maxCacheBytes = 1024; ///< largest T (clamped to M)
  std::uint32_t minLineBytes = 4;     ///< smallest L
  std::uint32_t maxLineBytes = 64;    ///< largest L (clamped to T)
  std::uint32_t maxAssociativity = 8; ///< largest S (paper caps at 8)
  std::uint32_t maxTiling = 16;       ///< largest B (clamped to T/L)
  bool sweepAssociativity = true;     ///< false => direct-mapped only
  bool sweepTiling = true;            ///< false => B = 1 only

  void validate() const;
};

/// How sweep groups evaluate their configurations against the shared
/// trace. A run's engine is not chosen by the caller: resolveBackend()
/// derives it from the run's policies.
enum class SweepBackend : std::uint8_t {
  /// Simulate every configuration (a CacheSim per member). Cost scales
  /// with the number of configurations.
  MultiSim,
  /// Stack-distance / policy-grid analysis: one profile per (line
  /// size, policy) serves every (T, S) at once, with statistics
  /// identical to simulation.
  StackDist,
};

[[nodiscard]] std::string toString(SweepBackend backend);

/// Everything that parameterizes an exploration run.
struct ExploreOptions {
  ExploreRanges ranges;
  EnergyParams energy;
  TimingParams timing;
  /// Apply the Section-4.1 conflict-free off-chip assignment before
  /// simulating (the paper's "optimized" rows); false = tight layout.
  bool optimizeLayout = true;
  /// Measure Add_bs from the generated trace (Gray-coded) instead of
  /// using the analytic default of kDefaultAddrSwitchesPerAccess.
  bool measureBusActivity = true;
  /// Account write traffic in the energy metric (the paper's model is
  /// read-only; see CacheEnergyModel::totalIncludingWritesNj).
  bool includeWriteEnergy = false;
  WritePolicy writePolicy = WritePolicy::WriteBack;
  ReplacementPolicy replacement = ReplacementPolicy::LRU;
};

/// The engine a sweep under `options` runs on: StackDist exactly when
/// ConfigBank::stackDistSupports() accepts the run's configurations
/// (every policy but Random replacement), else MultiSim. The one backend
/// resolution: Explorer, the trace sweeps and canonicalModelKey all
/// call it, and a ConfigBank is built from its answer.
[[nodiscard]] SweepBackend resolveBackend(const ExploreOptions& options) noexcept;

/// Fold one configuration's statistics into a DesignPoint through the
/// paper's cycle and energy models: cycles with the tiling term B,
/// energy with write traffic when options.includeWriteEnergy, plus
/// leakage over those cycles. Every sweep surface folds through this.
[[nodiscard]] DesignPoint foldPoint(const ExploreOptions& options,
                                    const CycleModel& cycleModel,
                                    const CacheConfig& config,
                                    std::uint32_t tiling,
                                    const CacheStats& stats, double addBs);

/// Stable text form of the sweep bounds alone. Part of
/// canonicalExploreKey; exposed separately so the server can key the
/// sweeps of one workload and model by a shared base and re-select a
/// narrower request from a wider cached sweep.
[[nodiscard]] std::string canonicalRangesKey(const ExploreRanges& ranges);

/// Stable text form of everything in `options` *except* the ranges:
/// energy and timing coefficients, layout/bus/write-energy flags,
/// policies, and the resolved backend. Equal model keys mean any sweep
/// key visited by both runs gets the bit-identical point.
[[nodiscard]] std::string canonicalModelKey(const ExploreOptions& options);

/// canonicalRangesKey + canonicalModelKey: everything in `options` that
/// determines a sweep's numerical output. Two option sets with equal
/// keys produce bit-identical results for the same workload — this is
/// the cache-key half of the serve result store. Locale-independent
/// (doubles via %.17g-equivalent round-trip formatting).
[[nodiscard]] std::string canonicalExploreKey(const ExploreOptions& options);

/// All evaluated points for one workload. A plain value: lookups are
/// linear scans, and callers with heavier lookup traffic keep their own
/// index (the search fitness cache, the serve subset walk).
struct ExplorationResult {
  std::string workload;
  std::vector<DesignPoint> points;

  /// Point with the given key; throws when the sweep did not visit it.
  [[nodiscard]] const DesignPoint& at(const ConfigKey& key) const;
  /// First point with the given key, or nullptr when not visited.
  [[nodiscard]] const DesignPoint* find(const ConfigKey& key) const noexcept;
};

/// A sweep restructured for shared-trace evaluation: the key grid plus
/// its partition into trace groups. All keys of one group share a tiling
/// and a memory layout, hence one reference trace. Group layout pointers
/// alias the owning Explorer's layout memo, which only grows and whose
/// std::map nodes never move: a plan stays valid for that Explorer's
/// lifetime.
struct SweepPlan {
  struct Group {
    /// Tiling applied to the loop nest for this group's trace (1 when
    /// the kernel is too shallow to tile, whatever B the keys carry).
    std::uint32_t traceTiling = 1;
    /// Kernel identity + tiling + layout-signature key of the shared
    /// trace.
    std::string traceKey;
    const MemoryLayout* layout = nullptr;
    std::vector<std::size_t> keyIndices;  ///< indices into `keys`
    /// Evaluation engine, resolveBackend() of the planning Explorer.
    SweepBackend backend = SweepBackend::MultiSim;
  };

  std::vector<ConfigKey> keys;
  std::vector<Group> groups;
};

/// Drives the sweep and evaluates individual design points.
class Explorer {
public:
  /// Layout-independent access patterns memoized per trace tiling.
  /// Thread-confined: the parallel explorer gives each worker its own.
  using PatternCache = std::map<std::uint32_t, AccessPattern>;

  explicit Explorer(ExploreOptions options = {});

  /// Evaluate one (cache, tiling) point of `kernel` by simulation. This
  /// is the reference per-point path: it regenerates the trace on every
  /// call (the sweep entry points below share traces instead).
  [[nodiscard]] DesignPoint evaluate(const Kernel& kernel,
                                     const CacheConfig& cache,
                                     std::uint32_t tiling = 1) const;

  /// Run the full MemExplore sweep over `kernel` on the shared-trace
  /// one-pass engine: the serial case of exploreParallel's group drain,
  /// on the calling thread. Bit-identical to calling evaluate() per
  /// sweep key.
  [[nodiscard]] ExplorationResult explore(const Kernel& kernel) const;

  /// Multi-objective NSGA-II search over the joint design space,
  /// returning a Pareto front over (energy, cycles, size) instead of a
  /// grid of points. By default the space is this explorer's own
  /// single-level (T, L, S, B) range with its configured policies and
  /// layout choice; SearchOptions::space widens it to joint
  /// policy/layout/L2 spaces. Evaluations route through the same
  /// planSweep machinery as explore(), so fronts are deterministic per
  /// seed. Defined in
  /// memx/search (link memx_search or the umbrella `memx` target).
  [[nodiscard]] search::SearchResult searchPareto(
      const Kernel& kernel, const search::SearchOptions& options) const;

  /// Every (T, L, S, B) coordinate the configured ranges visit.
  [[nodiscard]] std::vector<ConfigKey> sweepKeys() const;

  /// Partition `keys` into trace groups (computing and memoizing the
  /// layouts). Serial; the returned plan can then be evaluated group by
  /// group, concurrently if desired.
  [[nodiscard]] SweepPlan planSweep(const Kernel& kernel,
                                    std::vector<ConfigKey> keys) const;

  /// Generate (or fetch from `patterns`) the access pattern behind
  /// `group` and materialize its trace. Pure apart from `patterns`;
  /// safe to call concurrently with distinct pattern caches.
  [[nodiscard]] Trace buildGroupTrace(const Kernel& kernel,
                                      const SweepPlan::Group& group,
                                      PatternCache& patterns) const;

  /// Evaluate every key of `group` against its shared trace in one
  /// ConfigBank pass on the group's engine, writing results into `out`
  /// at the keys' positions. Touches no mutable Explorer state
  /// (thread-safe).
  void evaluateGroup(const SweepPlan::Group& group, const Trace& trace,
                     double addrActivity,
                     const std::vector<ConfigKey>& keys,
                     std::vector<DesignPoint>& out) const;

  /// The engine sweeps will actually use: resolveBackend(options()).
  [[nodiscard]] SweepBackend resolvedBackend() const noexcept;

  /// Add_bs for `trace` under the configured measurement option.
  [[nodiscard]] double addrActivityFor(const Trace& trace) const;

  /// CacheConfig for a sweep key with this run's policies applied.
  [[nodiscard]] CacheConfig configFor(const ConfigKey& key) const;

  /// Attach an observability recorder (nullptr detaches). Not owned;
  /// must outlive every exploration call made through this Explorer.
  /// With no recorder attached every instrumentation site reduces to a
  /// single null check; results are bit-identical either way.
  void setRecorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::Recorder* recorder() const noexcept {
    return recorder_;
  }

  [[nodiscard]] const ExploreOptions& options() const noexcept {
    return options_;
  }

private:
  /// Memo tag of `kernel`'s structural identity ("k<n>", interned per
  /// Explorer), so same-named kernels of different structure never share
  /// memo entries. Computed once per planSweep/evaluate, not per key.
  [[nodiscard]] std::string kernelTag(const Kernel& kernel) const;

  /// Memoized Section-4.1 layout per (kernel identity, T, L, S, trace
  /// tiling) — the tiling that reaches the probe, 1 when the nest cannot
  /// be tiled; a tight layout per (kernel identity, trace tiling), since
  /// it does not depend on the cache. Candidates are certified against
  /// the probe prefix of that traversal, recorded into `probes` on first
  /// use. Not thread-safe.
  const MemoryLayout& layoutFor(const Kernel& kernel,
                                const std::string& kernelTag,
                                const CacheConfig& cache,
                                std::uint32_t traceTiling,
                                PatternCache& probes) const;

  ExploreOptions options_;
  CycleModel cycleModel_;
  obs::Recorder* recorder_ = nullptr;
  /// Structural identity -> interned number behind kernelTag().
  mutable std::map<std::string, std::size_t> kernelIds_;
  /// Grows only; SweepPlan::Group::layout points into its nodes.
  mutable std::map<std::string, MemoryLayout> layoutCache_;
};

}  // namespace memx
