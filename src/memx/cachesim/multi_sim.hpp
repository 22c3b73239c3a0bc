// One-pass multi-configuration cache simulation.
//
// The MemExplore sweep evaluates many (T, L, S) configurations against the
// SAME reference stream. MultiCacheSim drives a bank of CacheSim instances
// from one copy of that stream. The line-address decomposition of a
// reference (first/last line index) depends only on the line size, so
// run() computes it once per distinct line size in the bank and replays
// the resulting spans member by member — a blocked schedule that keeps
// each member's tag array cache-hot for the whole trace instead of
// touching the bank's combined footprint on every reference.
//
// Statistics are bit-identical to running each CacheSim independently:
// members receive exactly the same probe sequence they would see alone,
// and members are mutually independent, so the two schedules agree.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"

namespace memx {

/// A bank of independent single-level caches driven in one trace pass.
class MultiCacheSim {
public:
  /// Constructs one CacheSim per config (each seeded with `rngSeed`, the
  /// same default a standalone simulateTrace uses). Throws on an invalid
  /// config or an empty bank.
  explicit MultiCacheSim(const std::vector<CacheConfig>& configs,
                         std::uint64_t rngSeed = 1);

  /// Run a whole trace through the bank (one pass over `trace`).
  void run(const Trace& trace);

  /// Drain `source` through the bank in chunks of `chunkRefs`
  /// references, so out-of-core traces replay in bounded memory. Each
  /// chunk uses the same blocked schedule as run(Trace) — members are
  /// independent, so the result is bit-identical to materializing the
  /// stream first. The pass runs on streamChunks, so the source decodes
  /// the next chunk on a thread of its own while the bank replays this
  /// one. Callable repeatedly (as is run(Trace)); cache state
  /// persists, which is how streamed trace sweeps split warmup from
  /// counted references. Returns the number of references drained.
  std::size_t run(TraceSource& source,
                  std::size_t chunkRefs = kDefaultTraceChunkRefs);

  /// Drop all contents and statistics (configurations are kept).
  void reset();

  [[nodiscard]] std::size_t size() const noexcept { return sims_.size(); }
  [[nodiscard]] const CacheConfig& config(std::size_t i) const {
    return sims_[i].config();
  }
  [[nodiscard]] const CacheStats& stats(std::size_t i) const {
    return sims_[i].stats();
  }

private:
  /// The one replay core behind both run() overloads: one block of
  /// references through every member, on the blocked schedule.
  void feed(const MemRef* refs, std::size_t count);

  /// Members sharing one line size, so one access decomposition serves
  /// all of them.
  struct LineGroup {
    std::uint32_t lineBytes = 0;
    unsigned lineShift = 0;            ///< log2(lineBytes)
    std::vector<std::size_t> members;  ///< indices into sims_
  };

  std::vector<CacheSim> sims_;
  std::vector<LineGroup> groups_;
};

/// Convenience: simulate `trace` once against every config, returning the
/// per-config statistics in input order. Equivalent to calling
/// simulateTrace per config, in a single trace pass.
[[nodiscard]] std::vector<CacheStats> simulateTraceMulti(
    const std::vector<CacheConfig>& configs, const Trace& trace);

}  // namespace memx
