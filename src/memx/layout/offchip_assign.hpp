// Conflict-avoiding off-chip data assignment (paper Section 4.1).
//
// Idea: for compatible (uniformly generated) reference classes, the cache
// line a class occupies is a pure function of the array base addresses and
// row pitches. Choosing those with a little padding staggers the classes
// into disjoint line slots, eliminating conflict misses entirely.
//
// Reproduces both paper examples:
//  * Compress (one array, two classes): row pitch padded from 32 to 36
//    bytes so rows i-1 and i land two lines apart in an 8-byte cache with
//    2-byte lines.
//  * Matrix addition (three arrays, one case): b placed at 38 and c at 76
//    so a/b/c start in cache lines 0/1/2.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/loopir/memory_layout.hpp"
#include "memx/loopir/trace_gen.hpp"

namespace memx {

/// Placement decision for one array.
struct ArrayAssignment {
  std::uint64_t baseAddr = 0;
  std::uint64_t rowPitchBytes = 0;  ///< 0 = tight (no intra-array padding)
  std::uint64_t paddingBytes = 0;   ///< bytes wasted vs. tight placement
  bool conflictFree = false;  ///< all its classes hit their target slots
};

/// Result of the assignment algorithm.
struct AssignmentPlan {
  MemoryLayout layout;
  std::vector<ArrayAssignment> arrays;
  /// Cache-line slot assigned to each reference class (index-aligned with
  /// analyzeReferences(kernel).groups).
  std::vector<std::uint64_t> groupSlots;
  /// True when every class landed on its target slot.
  bool complete = false;
  /// Probe simulations run while certifying (a candidate probed in both
  /// phases counts twice; 0 when no candidate needed probing).
  std::uint64_t candidatesProbed = 0;
  /// Probe references those simulations consumed in total.
  std::uint64_t probeRefs = 0;
  /// Total padding inserted relative to tight placement.
  [[nodiscard]] std::uint64_t totalPaddingBytes() const;
};

/// The paper's unoptimized baseline: arrays packed back to back.
[[nodiscard]] MemoryLayout sequentialLayout(const Kernel& kernel,
                                            std::uint64_t startAddr = 0);

/// The bounded prefix of `probeKernel`'s reference stream that
/// assignConflictFree certifies candidate layouts against. It depends
/// only on the traversal, so callers that plan one kernel under many
/// caches record it once per tiling and pass it in.
[[nodiscard]] AccessPattern layoutProbePattern(const Kernel& probeKernel);

/// Compute a conflict-avoiding layout for `kernel` under `cache`.
/// The kernel must have constant loop bounds (the class analysis runs on
/// the untiled nest). Candidate layouts, cheapest padding first, are
/// certified by simulating a probe: by default layoutProbePattern(kernel);
/// pass layoutProbePattern(tiled variant) as `probePattern` so the
/// padding also separates the classes a tile keeps live together. The
/// first candidate whose probe has no conflict miss wins; when none
/// does, the least-conflicting one is kept, flagged incomplete. Arrays
/// that cannot be made conflict-free (cache too small, indirect
/// accesses) fall back to tight placement and are flagged.
[[nodiscard]] AssignmentPlan assignConflictFree(
    const Kernel& kernel, const CacheConfig& cache,
    std::uint64_t startAddr = 0,
    const AccessPattern* probePattern = nullptr);

}  // namespace memx
