#include "memx/cachesim/hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

void checkInclusion(const CacheConfig& l1, const CacheConfig& l2) {
  MEMX_EXPECTS(l2.lineBytes >= l1.lineBytes,
               "L2 line size must be at least the L1 line size");
  MEMX_EXPECTS(l2.sizeBytes >= l1.sizeBytes,
               "L2 capacity must be at least the L1 capacity");
}

L1Filter filterL1(const CacheConfig& l1, const Trace& trace) {
  CacheSim sim(l1);
  std::vector<MemRef> stream;
  for (const MemRef& ref : trace) {
    const AccessOutcome out = sim.access(ref);
    for (const std::uint64_t victimAddr : out.evictedDirtyLines) {
      stream.push_back(MemRef{victimAddr, l1.lineBytes, AccessType::Write});
    }
    if (!out.hit) {
      stream.push_back(MemRef{ref.addr, ref.size, AccessType::Read});
    }
  }
  return L1Filter{sim.stats(), Trace(std::move(stream))};
}

CacheConfig spanSizedL2(const CacheConfig& l2, const Trace& l2Stream) {
  l2.validate();
  const unsigned lineShift = log2Exact(l2.lineBytes);
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (const MemRef& ref : l2Stream) {
    lo = std::min(lo, ref.addr >> lineShift);
    hi = std::max(hi, lastByte(ref) >> lineShift);
  }
  std::uint64_t sets = 1;
  if (!l2Stream.empty()) {
    // hi - lo + 1 wraps to 0 on a stream that spans every line index,
    // so the guard compares hi - lo.
    if (hi - lo >= l2.numSets()) return l2;
    sets = hi - lo + 1;
  }
  CacheConfig sized = l2;
  sized.sizeBytes = static_cast<std::uint32_t>(std::bit_ceil(sets)) *
                    l2.lineBytes * l2.associativity;
  return sized;
}

double hierarchyCycles(const HierarchyStats& stats) {
  constexpr double l1HitCycles = 1.0;
  constexpr double l2HitCycles = 8.0;  // added on an L1 miss, L2 hit
  constexpr double memCycles = 40.0;   // added on an L2 miss
  const double n = static_cast<double>(stats.l1.accesses());
  const double l1Miss = static_cast<double>(stats.l1.misses());
  const double l2Miss = static_cast<double>(stats.l2.misses());
  return n * l1HitCycles + l1Miss * l2HitCycles + l2Miss * memCycles;
}

}  // namespace memx
