// Stack-distance / policy-grid evaluation of a bank of cache configs.
//
// StackDistSim is the analytic sibling of MultiCacheSim: same bank
// interface (configs in, per-config CacheStats out, one run() over a
// trace), but instead of simulating each member it builds one profile
// per distinct (line size, replacement policy) and reads every
// member's hit/miss counts off that profile's (sets, associativity)
// grid. LRU members ride an AllAssocProfile (Hill–Smith stack
// distances: O(n)-class work per line size, independent of the member
// count); FIFO and tree-PLRU members ride a PolicyGridProfile (a
// single-pass grid simulator with an MRU short-circuit — FIFO/PLRU
// are not stack algorithms, so the shared work is the address decode,
// the set-index cascade and the streamed chunk, not a common stack).
// Either way the trace is decoded once per profile, which is what
// makes large sweeps cheap.
//
// LRU, FIFO and tree-PLRU replacement with write-allocate fills are in
// the analysis' domain (supports() is the eligibility predicate
// Explorer uses to pick a backend); only Random replacement remains
// simulation-bound. Both write policies are exact, including
// write-back dirty-eviction counts — see AllAssocProfile's dirty-stack
// accounting and PolicyGridProfile's per-cell dirty bits.
#pragma once

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// A bank of LRU/FIFO/PLRU write-allocate configurations evaluated
/// analytically from per-(line size, policy) profiles.
class StackDistSim {
public:
  /// Throws on an empty bank, an invalid config, or a config outside
  /// the analytic domain (see supports()).
  explicit StackDistSim(const std::vector<CacheConfig>& configs);

  /// True iff the analytic backends yield exact statistics for
  /// `config`: LRU, FIFO or tree-PLRU replacement with write-allocate
  /// fills. (Geometry is unrestricted; both write policies are exact —
  /// write-through word stores and write-back dirty evictions alike
  /// fall out of a single pass. Random replacement draws from a
  /// simulator-owned rng stream and stays simulation-only.)
  [[nodiscard]] static bool supports(const CacheConfig& config) noexcept {
    return config.replacement != ReplacementPolicy::Random &&
           config.allocatePolicy == AllocatePolicy::WriteAllocate;
  }

  /// Feed `trace` to every (line size, policy) profile and refresh
  /// every member's statistics.
  void run(const Trace& trace);

  /// Drain `source` through the same profiles in chunks of `chunkRefs`
  /// references: one pass over the stream feeds every profile, so
  /// out-of-core traces profile in bounded memory with bit-identical
  /// statistics to the whole-trace run. The pass runs on streamChunks:
  /// the source decodes the next chunk on a thread of its own while the
  /// profiles consume this one, each profile on its own thread up to
  /// the hardware's (run(const Trace&) stays on the caller's thread).
  /// Both overloads are callable repeatedly and in any mix — profile
  /// state persists and stats() reflects everything fed so far, which
  /// is how streamed trace sweeps split warmup from counted references.
  /// Returns the number of references drained.
  std::size_t run(TraceSource& source,
                  std::size_t chunkRefs = kDefaultTraceChunkRefs);

  [[nodiscard]] std::size_t size() const noexcept { return configs_.size(); }
  [[nodiscard]] const CacheConfig& config(std::size_t i) const {
    return configs_[i];
  }
  /// Statistics of member `i` over everything fed so far.
  [[nodiscard]] const CacheStats& stats(std::size_t i) const;

  /// Number of trace passes run() makes (= distinct (line size,
  /// policy) groups in the bank); exposed for observability counters.
  [[nodiscard]] std::size_t passCount() const noexcept {
    return groups_.size();
  }
  /// How many of those passes are FIFO/PLRU grid passes, and how many
  /// (sets, ways) cells those grids simulate in total (each pass is
  /// restricted to the distinct geometries its members query) — the
  /// stackdist.grid_passes / stackdist.grid_cells counters.
  [[nodiscard]] std::size_t gridPassCount() const noexcept {
    return gridPasses_;
  }
  [[nodiscard]] std::size_t gridCellCount() const noexcept {
    return gridCells_;
  }

private:
  /// Members sharing one (line size, replacement policy) share one
  /// profile: an AllAssocProfile for LRU, a PolicyGridProfile else.
  struct LineGroup {
    std::uint32_t lineBytes = 0;
    ReplacementPolicy policy = ReplacementPolicy::LRU;
    std::uint32_t maxSets = 1;
    std::uint32_t maxAssoc = 1;
    std::vector<std::size_t> members;  ///< indices into configs_
    /// Distinct (numSets, associativity) pairs among the members; grid
    /// groups restrict their pass to exactly these cells.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  };

  /// The one replay core behind both run() overloads: one block of
  /// references into profile `g`. Profiles share no state, so different
  /// profiles may be fed concurrently.
  void feedProfile(std::size_t g, const MemRef* refs, std::size_t count);
  /// Re-derive every member's statistics from its group's profile
  /// (valid at any block boundary — the profiles are incremental).
  void refreshStats();

  std::vector<CacheConfig> configs_;
  std::vector<LineGroup> groups_;
  std::vector<CacheStats> stats_;
  using Profile = std::variant<AllAssocProfile, PolicyGridProfile>;
  /// Incremental profiles, parallel to groups_. run(Trace) feeds them
  /// whole, run(TraceSource&) in chunks — the state is identical either
  /// way.
  std::vector<Profile> profiles_;
  std::size_t gridPasses_ = 0;
  std::size_t gridCells_ = 0;
};

/// Convenience: evaluate `trace` against every config analytically,
/// returning the per-config statistics in input order. Exactly matches
/// simulateTraceMulti for supported configs, every field included.
[[nodiscard]] std::vector<CacheStats> stackDistStats(
    const std::vector<CacheConfig>& configs, const Trace& trace);

}  // namespace memx
