// Cross-request result cache with single-flight de-duplication.
//
// The store maps a canonical request key — workload identity + op +
// canonicalExploreKey(options) (+ search/window parameters) — to the
// immutable result of that computation. resolve() is the whole
// protocol; callers never hold a claim on a key. Guarantees:
//
//   * Single-flight: when N workers resolve the same missing key at
//     once, exactly one runs its compute callback (outside the lock);
//     the rest block and receive that published value. A compute that
//     throws releases the key, so one waiter takes over and a transient
//     failure never wedges the slot.
//   * Generation-stamped invalidation: invalidateAll() bumps the store
//     generation; results computed against the old model are still
//     returned to the request that computed them but are never cached
//     or served to later requests.
//   * Sibling reuse: compute receives the ready entries that share the
//     request's base key (op + workload + model, without the sweep
//     bounds). The store makes no claim about which of them, if any,
//     contains the request; the caller decides, and reports whether it
//     re-selected from one (a subset hit) or computed in full (a miss).
//
// Values are shared_ptr<const StoredResult>: once published they are
// immutable plain values and may be read by any number of workers
// concurrently without locking.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "memx/core/explorer.hpp"
#include "memx/search/nsga.hpp"

namespace memx::serve {

/// One cached computation: an explore-style sweep or a search front.
using StoredResult = std::variant<ExplorationResult, search::SearchResult>;

class ResultStore {
public:
  struct Config {
    /// Ready entries kept; least-recently-used beyond this are evicted.
    std::size_t maxEntries = 256;
  };

  /// Lookup identity. An empty `base` opts out of sibling reuse.
  struct Key {
    std::string exact;  ///< full canonical request key
    std::string base;   ///< exact minus the sweep bounds
  };

  struct Counters {
    std::uint64_t hits = 0;        ///< exact ready hits (incl. waiters)
    std::uint64_t misses = 0;      ///< full computations
    std::uint64_t subsetHits = 0;  ///< served by re-selecting from a sibling
  };

  using Siblings = std::vector<std::shared_ptr<const StoredResult>>;

  /// What a compute callback produced.
  struct Computed {
    StoredResult value;
    bool subset = false;  ///< re-selected from one of the siblings
  };

  /// How resolve() answered.
  enum class Source : std::uint8_t { Hit, Miss, Subset };

  struct Resolved {
    std::shared_ptr<const StoredResult> value;
    Source source = Source::Hit;
  };

  ResultStore() : ResultStore(Config{}) {}
  explicit ResultStore(Config config) : config_(config) {}

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The value for `key`: a ready entry, the value another worker is
  /// computing (waited for), or else `compute(siblings)` run once
  /// outside the lock and published. An exception from `compute`
  /// releases the key to the next caller and propagates.
  Resolved resolve(const Key& key,
                   const std::function<Computed(const Siblings&)>& compute);

  /// Drop every cached result (model changed). Pending computations
  /// finish but are not cached. Returns the new generation.
  std::uint64_t invalidateAll();

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t generation() const;

private:
  struct Entry {
    std::shared_ptr<const StoredResult> value;  ///< null while pending
    std::string base;
    std::uint64_t lastUse = 0;
  };

  void publish(const std::string& exactKey, std::uint64_t generation,
               std::shared_ptr<const StoredResult> value, bool subset);
  void release(const std::string& exactKey) noexcept;
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
