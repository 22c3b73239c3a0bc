// Cross-request result cache with single-flight de-duplication.
//
// The store maps a canonical request key — workload identity + op +
// canonicalExploreKey(options) (+ search/window parameters) — to the
// immutable result of that computation. Guarantees:
//
//   * Single-flight: when N workers ask for the same missing key at
//     once, exactly one (the leader) computes; the rest block and
//     receive the leader's published value. A leader that fails wakes
//     one waiter to take over, so a transient failure never wedges the
//     slot.
//   * Generation-stamped invalidation: invalidateAll() bumps the store
//     generation; results computed against the old model can still be
//     returned to the request that computed them but are never cached
//     or served to later requests.
//   * Covering-range reuse: an explore-style lookup that misses exactly
//     may name a *parent* — a ready entry with the same base key (op +
//     workload + model) whose sweep bounds contain the request's. The
//     leader can then re-select from the parent's points instead of
//     re-simulating. The containment check here is a conservative
//     filter; the server's ordered walk over the parent must find every
//     sweep key of the request before it trusts the parent.
//
// Values are shared_ptr<const ...>: once published they are immutable
// plain values and may be read by any number of workers concurrently
// without locking.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>

#include "memx/core/explorer.hpp"
#include "memx/search/nsga.hpp"

namespace memx::serve {

/// One cached computation: exactly one member is set, by op kind.
struct StoredResult {
  std::shared_ptr<const ExplorationResult> explore;
  std::shared_ptr<const search::SearchResult> search;
};

class ResultStore {
public:
  struct Config {
    /// Ready entries kept; least-recently-used beyond this are evicted.
    std::size_t maxEntries = 256;
  };

  /// Lookup identity. `base`/`ranges` are only consulted for covering
  /// reuse and may be empty/absent for ops where that cannot apply.
  struct Key {
    std::string exact;  ///< full canonical request key
    std::string base;   ///< exact minus the sweep bounds
    std::optional<ExploreRanges> ranges;
  };

  struct Counters {
    std::uint64_t hits = 0;        ///< exact ready hits (incl. waiters)
    std::uint64_t misses = 0;      ///< full computations
    std::uint64_t subsetHits = 0;  ///< served by re-selecting from a parent
  };

  /// What a lookup resolved to. Exactly one of:
  ///   * `value` set: exact hit, use it directly.
  ///   * `leader` true: the caller owns the computation and MUST call
  ///     publish() or fail() with `generation`. `parent` (possibly
  ///     null) is a covering candidate to re-select from.
  struct Outcome {
    std::shared_ptr<const StoredResult> value;
    std::shared_ptr<const StoredResult> parent;
    bool leader = false;
    std::uint64_t generation = 0;
  };

  ResultStore() : ResultStore(Config{}) {}
  explicit ResultStore(Config config) : config_(config) {}

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Resolve `key`, blocking while another worker computes it.
  [[nodiscard]] Outcome get(const Key& key);

  /// Install the leader's value. Returns false (and caches nothing)
  /// when the store was invalidated since the matching get(); the
  /// caller's value is still valid for its own response.
  bool publish(const std::string& exactKey, std::uint64_t generation,
               std::shared_ptr<const StoredResult> value);

  /// Abandon a leadership claim after a failed computation; one waiter
  /// (if any) takes over as the new leader.
  void fail(const std::string& exactKey, std::uint64_t generation) noexcept;

  /// Count a leader's outcome against the hit/miss telemetry. (The
  /// store cannot tell a full computation from a parent re-selection —
  /// only the leader knows whether the parent actually covered.)
  void countMiss() noexcept;
  void countSubsetHit() noexcept;

  /// Drop every cached result (model changed). Pending computations
  /// finish but publish as no-ops. Returns the new generation.
  std::uint64_t invalidateAll();

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t generation() const;

private:
  struct Entry {
    std::shared_ptr<const StoredResult> value;  ///< null while pending
    std::uint64_t generation = 0;
    std::string base;
    std::optional<ExploreRanges> ranges;
    std::uint64_t lastUse = 0;
  };

  [[nodiscard]] std::shared_ptr<const StoredResult> findCoveringLocked(
      const Key& key) const;
  void evictLocked();

  const Config config_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<std::string, Entry> entries_;
  std::uint64_t generation_ = 0;
  std::uint64_t tick_ = 0;
  Counters counters_;
};

}  // namespace memx::serve
