#include "memx/cachesim/hierarchy.hpp"

#include "memx/util/assert.hpp"

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

double HierarchyTiming::cycles(const HierarchyStats& stats) const {
  const double n = static_cast<double>(stats.l1.accesses());
  const double l1Miss = static_cast<double>(stats.l1.misses());
  const double l2Miss = static_cast<double>(stats.l2.misses());
  return n * l1HitCycles + l1Miss * l2HitCycles + l2Miss * memCycles;
}

}  // namespace memx
