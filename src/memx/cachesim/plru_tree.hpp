// Tree pseudo-LRU over the ways of one set.
//
// The tree over `ways` (a power of two, at most 64) has ways - 1
// internal nodes, one bit each in a caller-held word: node n's children
// are 2n + 1 (low half) and 2n + 2 (high half), and a set bit points
// right. CacheSim keeps one word per set and PolicyGridProfile one per
// simulated (set, cell); both call these two walks, so their bit layout
// is the same by construction. RefCacheSim keeps its own recursive
// statement of the policy, because it is the oracle.
#pragma once

#include <cstddef>
#include <cstdint>

namespace memx {

/// Point every node on the path to `way` away from it.
inline void plruTreeTouch(std::uint64_t& bits, std::size_t way,
                          std::uint32_t ways) noexcept {
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = ways;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (std::uint64_t{1} << node);  // point right, away
      node = 2 * node + 1;
      hi = mid;
    } else {
      bits &= ~(std::uint64_t{1} << node);  // point left
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

/// The way the tree points at: follow the pointers from the root.
[[nodiscard]] inline std::size_t plruTreeVictim(std::uint64_t bits,
                                                std::uint32_t ways) noexcept {
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = ways;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (bits & (std::uint64_t{1} << node)) {  // points right
      node = 2 * node + 2;
      lo = mid;
    } else {
      node = 2 * node + 1;
      hi = mid;
    }
  }
  return lo;
}

}  // namespace memx
