// Reference cache-simulator oracle for differential testing.
//
// RefCacheSim is a deliberately naive re-implementation of the CacheSim
// contract: per-set vectors of ways searched associatively, separate
// last-use and fill-time fields instead of the merged replacement stamp,
// plain division/modulo instead of shift/mask address splitting, and a
// recursive tree-PLRU. It covers every replacement (LRU, FIFO, Random,
// TreePLRU), write (write-back, write-through) and allocate
// (write-allocate, no-write-allocate) policy CacheSim supports, and is
// specified to produce bit-identical CacheStats for any reference
// stream when seeded identically. It is the obviously-correct side of
// the differential harness (see docs/TESTING.md); never use it on a hot
// path.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// Per-access outcome mirroring AccessOutcome (kept separate so the
/// oracle shares no types with the code under test beyond the contract
/// structs CacheStats/CacheConfig/MemRef).
struct RefAccessOutcome {
  bool hit = true;
  std::uint32_t fills = 0;
  std::uint32_t writebacks = 0;
  /// Byte addresses of evicted dirty lines, in eviction order.
  std::vector<std::uint64_t> evictedDirtyLines;
};

/// The oracle: associative search over plain vectors, no bit tricks.
class RefCacheSim {
public:
  explicit RefCacheSim(const CacheConfig& config, std::uint64_t rngSeed = 1);

  /// Present one reference; returns the per-access outcome.
  RefAccessOutcome access(const MemRef& ref);

  /// Run a whole trace (statistics only).
  void run(const Trace& trace);

  /// Drop contents and statistics (configuration kept).
  void reset();

  [[nodiscard]] const CacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

private:
  /// One way of one set. LRU reads lastUse, FIFO reads filledAt; keeping
  /// them separate (unlike CacheSim's merged stamp) is the point: the
  /// oracle states the policies directly.
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
    std::uint64_t filledAt = 0;
    bool valid = false;
    bool dirty = false;
  };

  /// Probe one line of an access; true on hit.
  bool probeLine(std::uint64_t lineIndex, AccessType type,
                 RefAccessOutcome& outcome);
  [[nodiscard]] std::size_t chooseVictim(std::size_t setIndex);
  void recordWrite(Way& way);

  /// Recursive tree-PLRU over way range [lo, hi); node bit set = the
  /// tree points right. Same spec as CacheSim's iterative bit walk.
  void plruTouch(std::vector<std::uint8_t>& bits, std::size_t node,
                 std::size_t lo, std::size_t hi, std::size_t way);
  [[nodiscard]] std::size_t plruVictim(const std::vector<std::uint8_t>& bits,
                                       std::size_t node, std::size_t lo,
                                       std::size_t hi) const;

  CacheConfig config_;
  std::vector<std::vector<Way>> sets_;  ///< [numSets][associativity]
  std::vector<std::vector<std::uint8_t>> plru_;  ///< per-set tree nodes
  std::uint64_t time_ = 0;
  CacheStats stats_;
  std::mt19937_64 rng_;
};

/// Convenience: run `trace` on a fresh oracle, return the statistics.
[[nodiscard]] CacheStats refSimulateTrace(const CacheConfig& config,
                                          const Trace& trace);

/// Statistics of a naive inclusive L1+L2 replay (the filterL1 + L2
/// bank protocol re-stated on two RefCacheSims): dirty L1 victims are
/// written into the L2, L1 misses fetch through the L2.
struct RefHierarchyStats {
  CacheStats l1;
  CacheStats l2;
};

[[nodiscard]] RefHierarchyStats refSimulateHierarchy(const CacheConfig& l1,
                                                     const CacheConfig& l2,
                                                     const Trace& trace);

}  // namespace memx
