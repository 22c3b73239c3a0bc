#include "memx/check/ref_cache_sim.hpp"

#include "memx/util/assert.hpp"

namespace memx {

RefCacheSim::RefCacheSim(const CacheConfig& config, std::uint64_t rngSeed)
    : config_(config), rng_(rngSeed) {
  config_.validate();
  sets_.assign(config_.numSets(), std::vector<Way>(config_.associativity));
  // A binary tree over `associativity` leaves has fewer than
  // 2 * associativity internal nodes under the 2n+1/2n+2 indexing.
  plru_.assign(config_.numSets(),
               std::vector<std::uint8_t>(2 * config_.associativity, 0));
}

void RefCacheSim::plruTouch(std::vector<std::uint8_t>& bits,
                            std::size_t node, std::size_t lo,
                            std::size_t hi, std::size_t way) {
  if (hi - lo <= 1) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  if (way < mid) {
    bits[node] = 1;  // touched the left half: point right, away from it
    plruTouch(bits, 2 * node + 1, lo, mid, way);
  } else {
    bits[node] = 0;  // touched the right half: point left
    plruTouch(bits, 2 * node + 2, mid, hi, way);
  }
}

std::size_t RefCacheSim::plruVictim(const std::vector<std::uint8_t>& bits,
                                    std::size_t node, std::size_t lo,
                                    std::size_t hi) const {
  if (hi - lo <= 1) return lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  if (bits[node] != 0) return plruVictim(bits, 2 * node + 2, mid, hi);
  return plruVictim(bits, 2 * node + 1, lo, mid);
}

std::size_t RefCacheSim::chooseVictim(std::size_t setIndex) {
  std::vector<Way>& set = sets_[setIndex];
  // An invalid way always wins, lowest index first.
  for (std::size_t w = 0; w < set.size(); ++w) {
    if (!set[w].valid) return w;
  }
  switch (config_.replacement) {
    case ReplacementPolicy::LRU: {
      std::size_t oldest = 0;
      for (std::size_t w = 1; w < set.size(); ++w) {
        if (set[w].lastUse < set[oldest].lastUse) oldest = w;
      }
      return oldest;
    }
    case ReplacementPolicy::FIFO: {
      std::size_t oldest = 0;
      for (std::size_t w = 1; w < set.size(); ++w) {
        if (set[w].filledAt < set[oldest].filledAt) oldest = w;
      }
      return oldest;
    }
    case ReplacementPolicy::Random: {
      if (set.size() == 1) return 0;
      std::uniform_int_distribution<std::size_t> dist(0, set.size() - 1);
      return dist(rng_);
    }
    case ReplacementPolicy::TreePLRU: {
      return plruVictim(plru_[setIndex], 0, 0, set.size());
    }
  }
  return 0;
}

void RefCacheSim::recordWrite(Way& way) {
  if (config_.writePolicy == WritePolicy::WriteBack) {
    way.dirty = true;
  } else {
    ++stats_.memWrites;  // write-through: the store also goes to memory
  }
}

bool RefCacheSim::probeLine(std::uint64_t lineIndex, AccessType type,
                            RefAccessOutcome& outcome) {
  const std::uint64_t numSets = config_.numSets();
  const std::size_t setIndex = static_cast<std::size_t>(lineIndex % numSets);
  const std::uint64_t tag = lineIndex / numSets;
  std::vector<Way>& set = sets_[setIndex];
  ++time_;

  // Hit?
  for (std::size_t w = 0; w < set.size(); ++w) {
    Way& way = set[w];
    if (way.valid && way.tag == tag) {
      if (config_.replacement == ReplacementPolicy::LRU) {
        way.lastUse = time_;
      }
      if (config_.replacement == ReplacementPolicy::TreePLRU &&
          set.size() > 1) {
        plruTouch(plru_[setIndex], 0, 0, set.size(), w);
      }
      if (type == AccessType::Write) recordWrite(way);
      return true;
    }
  }

  // Miss: every miss fills.
  const std::size_t w = chooseVictim(setIndex);
  Way& victim = set[w];
  if (victim.valid && victim.dirty) {
    ++stats_.writebacks;
    ++outcome.writebacks;
    const std::uint64_t victimLine = victim.tag * numSets + setIndex;
    outcome.evictedDirtyLines.push_back(victimLine * config_.lineBytes);
  }
  victim.valid = true;
  victim.tag = tag;
  victim.dirty = false;
  victim.lastUse = time_;
  victim.filledAt = time_;
  if (config_.replacement == ReplacementPolicy::TreePLRU && set.size() > 1) {
    plruTouch(plru_[setIndex], 0, 0, set.size(), w);
  }
  ++stats_.lineFills;
  ++outcome.fills;
  if (type == AccessType::Write) recordWrite(victim);
  return false;
}

RefAccessOutcome RefCacheSim::access(const MemRef& ref) {
  // The span arithmetic is restated here rather than taken from
  // lastByte(), so the oracle stays independent of the engines.
  MEMX_EXPECTS(ref.size > 0, "access size must be positive");
  MEMX_EXPECTS(ref.addr <= ~std::uint64_t{0} - (ref.size - 1),
               "access runs past the top of the 64-bit address space");
  const std::uint64_t firstLine = ref.addr / config_.lineBytes;
  const std::uint64_t lastLine =
      (ref.addr + ref.size - 1) / config_.lineBytes;
  RefAccessOutcome outcome;
  bool allHit = true;
  for (std::uint64_t line = firstLine;; ++line) {
    if (!probeLine(line, ref.type, outcome)) allHit = false;
    if (line == lastLine) break;
  }
  outcome.hit = allHit;
  if (isReadLike(ref.type)) {
    ++stats_.reads;
    if (allHit) {
      ++stats_.readHits;
    } else {
      ++stats_.readMisses;
    }
  } else {
    ++stats_.writes;
    if (allHit) {
      ++stats_.writeHits;
    } else {
      ++stats_.writeMisses;
    }
  }
  return outcome;
}

void RefCacheSim::run(const Trace& trace) {
  for (const MemRef& ref : trace) access(ref);
}

void RefCacheSim::reset() {
  for (std::vector<Way>& set : sets_) {
    for (Way& way : set) way = Way{};
  }
  for (std::vector<std::uint8_t>& bits : plru_) {
    for (std::uint8_t& b : bits) b = 0;
  }
  time_ = 0;
  stats_ = CacheStats{};
}

CacheStats refSimulateTrace(const CacheConfig& config, const Trace& trace) {
  RefCacheSim sim(config);
  sim.run(trace);
  return sim.stats();
}

RefHierarchyStats refSimulateHierarchy(const CacheConfig& l1,
                                       const CacheConfig& l2,
                                       const Trace& trace) {
  RefCacheSim simL1(l1);
  RefCacheSim simL2(l2);
  for (const MemRef& ref : trace) {
    const RefAccessOutcome l1Out = simL1.access(ref);
    for (const std::uint64_t victimAddr : l1Out.evictedDirtyLines) {
      simL2.access(MemRef{victimAddr, l1.lineBytes, AccessType::Write});
    }
    if (!l1Out.hit) simL2.access(MemRef{ref.addr, ref.size, AccessType::Read});
  }
  return RefHierarchyStats{simL1.stats(), simL2.stats()};
}

}  // namespace memx
