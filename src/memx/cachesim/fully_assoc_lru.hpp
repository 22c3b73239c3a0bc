// Exact fully-associative LRU residency in O(1) per probe.
//
// The 3C classifier and the Section-4.1 layout certification both ask,
// for every reference, whether a fully-associative LRU cache of the
// target's capacity would hit. A CacheSim with associativity = numLines
// answers by scanning every way of its single set; this structure
// answers with an open-addressed hash lookup plus a splice in an
// index-linked recency list. It tracks residency only (no dirtiness, no
// statistics) and follows CacheSim's fill rule: a write miss under
// no-write-allocate leaves the contents unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/trace/memref.hpp"

namespace memx {

class FullyAssocLru {
public:
  /// An empty cache of `config.numLines()` lines filling under
  /// `config.allocatePolicy`; the set/way split and replacement policy
  /// of `config` are ignored. Throws on invalid config.
  explicit FullyAssocLru(const CacheConfig& config);

  /// Present one access covering line indices [firstLine, lastLine],
  /// probing the lines in order like CacheSim::access. Returns true
  /// when every line hit.
  bool access(std::uint64_t firstLine, std::uint64_t lastLine,
              AccessType type) {
    const bool allocate = allocateWrites_ || isReadLike(type);
    bool allHit = true;
    for (std::uint64_t line = firstLine;; ++line) {
      allHit &= probe(line, allocate);
      if (line == lastLine) break;
    }
    return allHit;
  }

private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Hash-table entry: a resident line and its slot (kNone = empty).
  struct Entry {
    std::uint64_t line = 0;
    std::uint32_t slot = kNone;
  };

  [[nodiscard]] std::size_t home(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                    hashShift_);
  }

  bool probe(std::uint64_t line, bool allocate) {
    std::size_t pos = home(line);
    while (table_[pos].slot != kNone) {
      if (table_[pos].line == line) {
        moveToFront(table_[pos].slot);
        return true;
      }
      pos = (pos + 1) & tableMask_;
    }
    if (allocate) fill(line, pos);
    return false;
  }

  /// Make `line` resident at the MRU end, evicting the LRU line when
  /// full; `freePos` is the empty table position its lookup ended on.
  void fill(std::uint64_t line, std::size_t freePos);
  /// Remove `line` (which must be resident) from the table.
  void erase(std::uint64_t line);
  void unlink(std::uint32_t slot) noexcept;
  void pushFront(std::uint32_t slot) noexcept;
  void moveToFront(std::uint32_t slot) noexcept {
    if (slot == head_) return;
    unlink(slot);
    pushFront(slot);
  }

  bool allocateWrites_ = true;
  std::uint32_t capacity_ = 0;
  std::uint32_t used_ = 0;
  /// Per slot: the resident line and its recency-list neighbours
  /// (prev is toward the MRU head, next toward the LRU tail).
  std::vector<std::uint64_t> lineOf_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::uint32_t head_ = kNone;  ///< most recently used slot
  std::uint32_t tail_ = kNone;  ///< least recently used slot
  /// Linear-probing table, at most half full, power-of-two sized.
  std::vector<Entry> table_;
  std::size_t tableMask_ = 0;
  unsigned hashShift_ = 0;
};

}  // namespace memx
