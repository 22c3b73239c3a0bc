// The configuration bank every sweep surface evaluates through: a set of
// cache configurations replayed against one reference stream. Kernel
// groups, fixed traces and streamed trace files all feed a bank the same
// way, so no caller picks an engine and one place emits the engine
// counters.
//
// The MemExplore sweep evaluates many (T, L, S) configurations against
// the SAME reference stream, so the bank groups its members once by
// (line size, engine) and every group reads the stream once:
//
//   - MultiSim: one CacheSim per member, seeded with 1 like a
//     standalone simulateTrace (Random replacement is simulation-only,
//     so a Random sweep always lands here). A group decomposes each
//     block of references into line spans once and replays them member
//     by member — a blocked schedule that keeps each member's tag array
//     cache-hot instead of touching the group's combined footprint on
//     every reference.
//   - StackDist: LRU members share an AllAssocProfile (Hill–Smith stack
//     distances); FIFO and tree-PLRU members share a PolicyGridProfile
//     per policy, restricted to the (sets, ways) cells they query. Every
//     member's statistics are read off its group's profile.
//
// Either way the statistics are bit-identical to simulating each member
// alone, every field included. Groups share no state, so each group is
// one lane of a streamed pass (see trace/chunk_stream.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/core/explorer.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/util/cache_line.hpp"

namespace memx {

class ConfigBank {
public:
  /// Build the engine `backend` names over `configs` (sweeps pass
  /// resolveBackend()'s answer). Throws on an empty bank, an invalid
  /// config, or a StackDist bank outside the analytic domain.
  ConfigBank(SweepBackend backend, const std::vector<CacheConfig>& configs);

  /// True iff the StackDist engine yields exact statistics for
  /// `config`: LRU, FIFO or tree-PLRU replacement with write-allocate
  /// fills, any geometry, both write policies. Random replacement draws
  /// from a simulator-owned rng stream and stays simulation-only.
  [[nodiscard]] static bool stackDistSupports(
      const CacheConfig& config) noexcept {
    return config.replacement != ReplacementPolicy::Random &&
           config.allocatePolicy == AllocatePolicy::WriteAllocate;
  }

  /// Replay an in-memory trace through every member, on the caller's
  /// thread.
  void run(const Trace& trace);
  /// Drain `source` through every member in chunks of `chunkRefs`
  /// references, one streamChunks lane per group. Both overloads may be
  /// called repeatedly and in any mix: member state persists, which is
  /// how streamed trace sweeps split warmup from counted references.
  void run(TraceSource& source, std::size_t chunkRefs);

  [[nodiscard]] std::size_t size() const noexcept { return configs_.size(); }
  /// Statistics of member `i` over everything run so far.
  [[nodiscard]] const CacheStats& stats(std::size_t i) const {
    return stats_[i];
  }

  /// Emit the sweep.* counters and the engine's workload counters
  /// (sim.accesses, or the stackdist.* family) for everything run so
  /// far. No-op without a recorder.
  void record(obs::Recorder* recorder) const;

private:
  /// A MultiSim group: one simulator per member, fed one line-span
  /// decomposition per block.
  struct SimGroup {
    unsigned lineShift = 0;          ///< log2(lineBytes)
    PaddedVector<CacheSim> sims;  ///< parallel to Group::members

    /// Decompose the block into line spans once, then replay the spans
    /// member by member.
    void feed(const MemRef* refs, std::size_t count);
  };

  /// Members answered by one pass over the stream.
  struct Group {
    std::vector<std::size_t> members;  ///< indices into configs_
    std::variant<SimGroup, AllAssocProfile, PolicyGridProfile> engine;
    /// Groups are lanes fed on different threads: one unused cache line
    /// keeps this engine off the lines of the next group's.
    std::byte pad[kCacheLineBytes] = {};
  };

  /// The one replay core behind both run() overloads: one block of
  /// references into group `lane`. Touches that group's state only.
  void feed(std::size_t lane, const MemRef* refs, std::size_t count);
  /// Re-read every member's statistics from its group (valid at any
  /// block boundary: every engine is incremental).
  void refreshStats();

  std::vector<CacheConfig> configs_;
  PaddedVector<Group> groups_;
  std::vector<CacheStats> stats_;
  std::uint64_t refs_ = 0;  ///< references fed so far
};

}  // namespace memx
