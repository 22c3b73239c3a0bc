#include "memx/cachesim/hierarchy.hpp"

#include "memx/util/assert.hpp"

namespace memx {

void appendL2Refs(const MemRef& ref, const AccessOutcome& l1Out,
                  std::uint32_t l1LineBytes, std::vector<MemRef>& out) {
  for (const std::uint64_t victimAddr : l1Out.evictedDirtyLines) {
    out.push_back(MemRef{victimAddr, l1LineBytes, AccessType::Write});
  }
  if (!l1Out.hit) out.push_back(MemRef{ref.addr, ref.size, AccessType::Read});
}

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
    appendL2Refs(ref, sim.access(ref), l1.lineBytes, stream);
  }
  return L1Filter{sim.stats(), Trace(std::move(stream))};
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
  checkInclusion(l1, l2);
}

void CacheHierarchy::access(const MemRef& ref) {
  l2Refs_.clear();
  appendL2Refs(ref, l1_.access(ref), l1_.config().lineBytes, l2Refs_);
  for (const MemRef& l2Ref : l2Refs_) {
    const AccessOutcome out = l2_.access(l2Ref);
    // Victim writes that allocate in the L2 are not main-memory reads.
    if (l2Ref.type == AccessType::Read) stats_.mainReads += out.fills;
    stats_.mainWrites += out.writebacks;
  }
  stats_.l1 = l1_.stats();
  stats_.l2 = l2_.stats();
}

void CacheHierarchy::run(const Trace& trace) {
  for (const MemRef& ref : trace) access(ref);
}

void CacheHierarchy::reset() {
  l1_.reset();
  l2_.reset();
  stats_ = HierarchyStats{};
}

double HierarchyTiming::cycles(const HierarchyStats& stats) const {
  const double n = static_cast<double>(stats.l1.accesses());
  const double l1Miss = static_cast<double>(stats.l1.misses());
  const double l2Miss = static_cast<double>(stats.l2.misses());
  return n * l1HitCycles + l1Miss * l2HitCycles + l2Miss * memCycles;
}

}  // namespace memx
