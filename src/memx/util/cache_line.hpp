// Heap arrays no other allocation shares a cache line with.
//
// A streamed pass feeds each ConfigBank lane on a thread of its own, but
// the bank builds every lane's engine on the caller's thread, so the
// engines' arrays end up heap neighbours. Two lanes' arrays sharing one
// cache line bounce it between cores on every reference (false
// sharing): one line-8 profile's recency tail and one line-16
// profile's histogram head on the same line slowed a streamed LRU sweep
// by a fifth or more. PaddedAllocator keeps one unused cache line on
// each side of every block, so no other block can reach the lines its
// elements sit on. It pads rather than aligns: aligned heap blocks skip
// the allocator's per-thread caches, which cost the many short-lived
// banks of a search more than the padding does.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace memx {

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
struct PaddedAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  PaddedAllocator() noexcept = default;
  template <typename U>
  PaddedAllocator(const PaddedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    auto* block = static_cast<std::byte*>(::operator new(blockBytes(n)));
    return reinterpret_cast<T*>(block + kCacheLineBytes);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(reinterpret_cast<std::byte*>(p) - kCacheLineBytes,
                      blockBytes(n));
  }

  friend bool operator==(const PaddedAllocator&,
                         const PaddedAllocator&) noexcept {
    return true;
  }

private:
  static std::size_t blockBytes(std::size_t n) noexcept {
    return n * sizeof(T) + 2 * kCacheLineBytes;
  }
};

/// A std::vector whose elements share no cache line with another block.
template <typename T>
using PaddedVector = std::vector<T, PaddedAllocator<T>>;

}  // namespace memx
