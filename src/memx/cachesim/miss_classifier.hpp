// 3C miss classification (compulsory / capacity / conflict).
//
// The paper's off-chip assignment (Section 4.1) targets *conflict* misses
// specifically; this shadow-simulation classifier lets the benches and the
// tests show that the assignment removes exactly that category.
//
// Classification follows Hill's standard definition:
//  - compulsory: the line was never referenced before (misses even in an
//    infinite cache),
//  - capacity: misses in a fully-associative LRU cache of equal capacity,
//  - conflict: everything else (hits fully-associative, misses set-assoc).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/fully_assoc_lru.hpp"

namespace memx {

/// Per-category miss counts.
struct MissBreakdown {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t compulsory = 0;
  std::uint64_t capacity = 0;
  std::uint64_t conflict = 0;

  [[nodiscard]] std::uint64_t misses() const noexcept {
    return compulsory + capacity + conflict;
  }
  [[nodiscard]] double conflictRate() const noexcept {
    return accesses == 0 ? 0.0 : static_cast<double>(conflict) /
                                     static_cast<double>(accesses);
  }
  [[nodiscard]] double missRate() const noexcept {
    return accesses == 0 ? 0.0 : static_cast<double>(misses()) /
                                     static_cast<double>(accesses);
  }
};

/// Runs the target cache and a fully-associative LRU shadow of the same
/// capacity side by side, plus an infinite-cache seen-set.
class MissClassifier {
public:
  /// Throws on invalid config.
  explicit MissClassifier(const CacheConfig& config);

  /// Present one reference to both caches and classify the outcome.
  void access(const MemRef& ref);

  /// Classify a whole trace.
  void run(const Trace& trace);

  [[nodiscard]] const MissBreakdown& breakdown() const noexcept {
    return breakdown_;
  }
  /// Statistics of the real (set-associative) cache.
  [[nodiscard]] const CacheStats& targetStats() const noexcept {
    return target_.stats();
  }

private:
  CacheSim target_;
  FullyAssocLru fullyAssoc_;
  std::unordered_set<std::uint64_t> seenLines_;
  MissBreakdown breakdown_;
};

/// Convenience wrapper: classify all misses of `trace` under `config`.
[[nodiscard]] MissBreakdown classifyMisses(const CacheConfig& config,
                                           const Trace& trace);

/// Counts conflict misses alone: target misses that the
/// fully-associative LRU twin hits. A twin hit means every line the
/// access touches is resident, hence was seen before, so no compulsory
/// miss can qualify and no first-touch set is needed; the count equals
/// MissBreakdown::conflict of the same stream.
class ConflictCounter {
public:
  /// Throws on invalid config.
  explicit ConflictCounter(const CacheConfig& config)
      : target_(config), twin_(config) {}

  /// Present one access covering line indices [firstLine, lastLine];
  /// returns true when it was a conflict miss.
  bool access(std::uint64_t firstLine, std::uint64_t lastLine,
              AccessType type) {
    const bool targetHit = target_.accessLinesFast(firstLine, lastLine, type);
    const bool twinHit = twin_.access(firstLine, lastLine, type);
    return !targetHit && twinHit;
  }

private:
  CacheSim target_;
  FullyAssocLru twin_;
};

/// Conflict misses of `trace` under `config`, stopping once `bound` are
/// found: min(classifyMisses(config, trace).conflict, bound).
[[nodiscard]] std::uint64_t countConflicts(const CacheConfig& config,
                                           const Trace& trace,
                                           std::uint64_t bound);

}  // namespace memx
