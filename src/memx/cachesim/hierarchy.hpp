// Two-level cache hierarchy.
//
// The paper explores a single on-chip data cache against off-chip SRAM;
// a natural extension (and a common embedded configuration by the early
// 2000s) adds an L2 between them. The stack is inclusive: L1 misses
// probe the L2, L2 misses fill both, and dirty L1 victims are written
// back into the L2. This module states the L2's reference stream and
// runs the L1 pass that produces it; any L2 (or bank of L2s, see
// core/hierarchy_explorer) then replays that stream, and its line
// fills are the stack's off-chip traffic.
#pragma once

#include <cstdint>

#include "memx/cachesim/cache_sim.hpp"

namespace memx {

/// Per-level and end-to-end statistics of a hierarchy run.
struct HierarchyStats {
  CacheStats l1;
  CacheStats l2;

  /// Fraction of processor accesses that leave the chip.
  [[nodiscard]] double globalMissRate() const noexcept {
    const auto n = l1.accesses();
    return n == 0 ? 0.0
                  : static_cast<double>(l2.misses()) /
                        static_cast<double>(n);
  }
};

/// Throws unless `l2`'s lines and capacity are at least `l1`'s.
void checkInclusion(const CacheConfig& l1, const CacheConfig& l2);

/// One pass of `trace` through a fresh `l1`: its statistics and the L2
/// stream it produced, ready for any number of L2 candidates. The one
/// statement of what the L2 sees: for each L1 access, each dirty L1
/// victim as a write of one L1 line, then, if the access missed, a read
/// of the access's bytes. The L2 never back-invalidates the L1, so for a
/// fixed L1 the stream is the same whatever the L2 is.
struct L1Filter {
  CacheStats l1;
  Trace l2Stream;
};
[[nodiscard]] L1Filter filterL1(const CacheConfig& l1, const Trace& trace);

/// Cycles of a two-level run: 1 per access, 8 more per L1 miss (the L2
/// access) and 40 more per L2 miss (main memory).
[[nodiscard]] double hierarchyCycles(const HierarchyStats& stats);

}  // namespace memx
