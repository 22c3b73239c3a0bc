#include "memx/cachesim/cache_sim.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

namespace {

/// Zeroed allocations at least this large are mapped, not heap-allocated.
/// calloc alone is not enough: glibc raises its mmap threshold after the
/// first large free, so later multi-MiB callocs come from the heap and
/// are memset, committing every page. Smaller arrays keep a cache line
/// of padding on each side, like every array a streamed lane writes
/// (util/cache_line.hpp).
constexpr std::size_t kMapThresholdBytes = std::size_t{64} << 10;

void* allocateZeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes >= kMapThresholdBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
  auto* block =
      static_cast<std::byte*>(std::calloc(bytes + 2 * kCacheLineBytes, 1));
  if (block == nullptr) throw std::bad_alloc();
  return block + kCacheLineBytes;
}

void releaseZeroed(void* p, std::size_t bytes) noexcept {
  if (bytes >= kMapThresholdBytes) {
    ::munmap(p, bytes);
  } else if (p != nullptr) {
    std::free(static_cast<std::byte*>(p) - kCacheLineBytes);
  }
}

}  // namespace

CacheSim::LineArray::LineArray(std::size_t size)
    : data_(static_cast<Line*>(allocateZeroed(size * sizeof(Line)))),
      size_(size) {}

CacheSim::LineArray::LineArray(const LineArray& other)
    : LineArray(other.size_) {
  if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(Line));
}

CacheSim::LineArray::LineArray(LineArray&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

CacheSim::LineArray& CacheSim::LineArray::operator=(LineArray other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  return *this;
}

CacheSim::LineArray::~LineArray() {
  releaseZeroed(data_, size_ * sizeof(Line));
}

void CacheSim::LineArray::clear() noexcept {
  if (size_ != 0) {
    std::memset(static_cast<void*>(data_), 0, size_ * sizeof(Line));
  }
}

CacheSim::CacheSim(const CacheConfig& config, std::uint64_t rngSeed)
    : config_(config), rng_(rngSeed) {
  config_.validate();
  // The PLRU tree over A ways has A - 1 internal nodes packed into one
  // word per set, so the policy is representable up to 64 ways; wider
  // trees would silently wrap the node shifts below, so refuse loudly.
  MEMX_EXPECTS(config_.replacement != ReplacementPolicy::TreePLRU ||
                   config_.associativity <= 64,
               "TreePLRU supports at most 64 ways per set");
  lineShift_ = log2Exact(config_.lineBytes);
  setShift_ = log2Exact(config_.numSets());
  setMask_ = config_.numSets() - 1;
  lines_ = LineArray(static_cast<std::size_t>(config_.numSets()) *
                     config_.associativity);
  if (config_.replacement == ReplacementPolicy::TreePLRU) {
    plruBits_.assign(config_.numSets(), 0);
  }
}

void CacheSim::plruTouch(std::uint32_t setIndex, std::size_t way) {
  // The tree is only consulted by plruVictim, so policies other than
  // TreePLRU need not maintain it.
  if (config_.replacement != ReplacementPolicy::TreePLRU ||
      config_.associativity < 2) {
    return;
  }
  std::uint64_t& bits = plruBits_[setIndex];
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = config_.associativity;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (way < mid) {
      bits |= (std::uint64_t{1} << node);  // point right, away from
      node = 2 * node + 1;                 // the touched way
      hi = mid;
    } else {
      bits &= ~(std::uint64_t{1} << node);  // point left
      node = 2 * node + 2;
      lo = mid;
    }
  }
}

std::size_t CacheSim::plruVictim(std::uint32_t setIndex) const {
  if (config_.associativity < 2) return 0;
  const std::uint64_t bits = plruBits_[setIndex];
  std::size_t node = 0;
  std::size_t lo = 0;
  std::size_t hi = config_.associativity;
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

std::uint32_t CacheSim::setIndexOf(std::uint64_t addr) const noexcept {
  return static_cast<std::uint32_t>((addr >> lineShift_) & setMask_);
}

std::uint64_t CacheSim::tagOf(std::uint64_t addr) const noexcept {
  return addr >> lineShift_ >> setShift_;
}

bool CacheSim::contains(std::uint64_t addr) const {
  const std::uint32_t set = setIndexOf(addr);
  const std::uint64_t tag = tagOf(addr);
  const std::size_t base =
      static_cast<std::size_t>(set) * config_.associativity;
  for (std::size_t w = 0; w < config_.associativity; ++w) {
    const Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) return true;
  }
  return false;
}

std::size_t CacheSim::validLineCount() const {
  return static_cast<std::size_t>(
      std::count_if(lines_.begin(), lines_.end(),
                    [](const Line& l) { return l.valid; }));
}

std::size_t CacheSim::victimWay(std::uint32_t setIndex) {
  const std::size_t base =
      static_cast<std::size_t>(setIndex) * config_.associativity;
  switch (config_.replacement) {
    case ReplacementPolicy::LRU:
    case ReplacementPolicy::FIFO: {
      // One scan serves both: prefer the first invalid way, else the
      // oldest stamp (last use for LRU, fill time for FIFO).
      std::size_t best = 0;
      std::uint64_t bestStamp = ~std::uint64_t{0};
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        const Line& line = lines_[base + w];
        if (!line.valid) return w;
        if (line.stamp < bestStamp) {
          bestStamp = line.stamp;
          best = w;
        }
      }
      return best;
    }
    case ReplacementPolicy::Random: {
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        if (!lines_[base + w].valid) return w;
      }
      std::uniform_int_distribution<std::size_t> dist(
          0, config_.associativity - 1);
      return dist(rng_);
    }
    case ReplacementPolicy::TreePLRU: {
      for (std::size_t w = 0; w < config_.associativity; ++w) {
        if (!lines_[base + w].valid) return w;
      }
      return plruVictim(setIndex);
    }
  }
  return 0;
}

bool CacheSim::probeLineIndex(std::uint64_t lineIndex, AccessType type,
                              AccessOutcome* outcome) {
  const std::uint32_t set = static_cast<std::uint32_t>(lineIndex & setMask_);
  const std::uint64_t tag = lineIndex >> setShift_;

  if (config_.associativity == 1) {
    // Direct-mapped: way 0 of the set is the only candidate, every
    // replacement policy degenerates to it, and the stamp/clock are
    // never read. Same statistics as the set-associative path below.
    Line& line = lines_[set];
    if (line.valid && line.tag == tag) {
      if (type == AccessType::Write) {
        if (config_.writePolicy == WritePolicy::WriteBack) {
          line.dirty = true;
        } else {
          ++stats_.memWrites;
        }
      }
      return true;
    }
    if (!isReadLike(type) &&
        config_.allocatePolicy != AllocatePolicy::WriteAllocate) {
      ++stats_.memWrites;
      return false;
    }
    if (line.valid && line.dirty) {
      ++stats_.writebacks;
      if (outcome != nullptr) {
        ++outcome->writebacks;
        outcome->evictedDirtyLines.push_back(
            ((line.tag << setShift_) | set) << lineShift_);
      }
    }
    line.valid = true;
    line.tag = tag;
    line.dirty = false;
    ++stats_.lineFills;
    if (outcome != nullptr) ++outcome->fills;
    if (type == AccessType::Write) {
      if (config_.writePolicy == WritePolicy::WriteBack) {
        line.dirty = true;
      } else {
        ++stats_.memWrites;
      }
    }
    return false;
  }

  const std::size_t base =
      static_cast<std::size_t>(set) * config_.associativity;
  ++clock_;

  for (std::size_t w = 0; w < config_.associativity; ++w) {
    Line& line = lines_[base + w];
    if (line.valid && line.tag == tag) {
      if (config_.replacement == ReplacementPolicy::LRU) line.stamp = clock_;
      plruTouch(set, w);
      if (type == AccessType::Write) {
        if (config_.writePolicy == WritePolicy::WriteBack) {
          line.dirty = true;
        } else {
          ++stats_.memWrites;
        }
      }
      return true;
    }
  }

  // Miss.
  const bool allocate = isReadLike(type) ||
                        config_.allocatePolicy == AllocatePolicy::WriteAllocate;
  if (!allocate) {
    ++stats_.memWrites;  // write straight around the cache
    return false;
  }

  const std::size_t w = victimWay(set);
  Line& victim = lines_[base + w];
  if (victim.valid && victim.dirty) {
    ++stats_.writebacks;
    if (outcome != nullptr) {
      ++outcome->writebacks;
      // Reconstruct the victim's byte address from tag and set index.
      outcome->evictedDirtyLines.push_back(
          ((victim.tag << setShift_) | set) << lineShift_);
    }
  }
  victim.valid = true;
  victim.tag = tag;
  victim.stamp = clock_;
  victim.dirty = false;
  plruTouch(set, w);
  ++stats_.lineFills;
  if (outcome != nullptr) ++outcome->fills;
  if (type == AccessType::Write) {
    if (config_.writePolicy == WritePolicy::WriteBack) {
      victim.dirty = true;
    } else {
      ++stats_.memWrites;
    }
  }
  return false;
}

AccessOutcome CacheSim::access(const MemRef& ref) {
  const std::uint64_t lastLine = lastByte(ref) >> lineShift_;
  AccessOutcome outcome;
  bool allHit = true;
  // Every line loop below ends on lastLine itself rather than testing
  // line <= lastLine, so a span ending on line 2^64 - 1 terminates.
  for (std::uint64_t line = ref.addr >> lineShift_;; ++line) {
    allHit &= probeLineIndex(line, ref.type, &outcome);
    if (line == lastLine) break;
  }
  outcome.hit = allHit;
  countAccess(allHit, ref.type);
  return outcome;
}

bool CacheSim::accessLinesFast(std::uint64_t firstLine,
                               std::uint64_t lastLine, AccessType type) {
  bool allHit = true;
  for (std::uint64_t line = firstLine;; ++line) {
    allHit &= probeLineIndex(line, type, nullptr);
    if (line == lastLine) break;
  }
  countAccess(allHit, type);
  return allHit;
}

void CacheSim::countAccess(bool allHit, AccessType type) {
  if (isReadLike(type)) {
    ++stats_.reads;
    allHit ? ++stats_.readHits : ++stats_.readMisses;
  } else {
    ++stats_.writes;
    allHit ? ++stats_.writeHits : ++stats_.writeMisses;
  }
}

void CacheSim::replaySpans(const LineSpan* spans, std::size_t count) {
  // Accumulate the per-access counters in locals and flush once: the
  // counts are identical to calling accessLinesFast per span, without
  // read-modify-writing six statistics fields on every access.
  std::uint64_t reads = 0;
  std::uint64_t readHits = 0;
  std::uint64_t writes = 0;
  std::uint64_t writeHits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    bool allHit = true;
    for (std::uint64_t line = spans[i].first;; ++line) {
      allHit &= probeLineIndex(line, spans[i].type, nullptr);
      if (line == spans[i].last) break;
    }
    if (isReadLike(spans[i].type)) {
      ++reads;
      readHits += allHit ? 1 : 0;
    } else {
      ++writes;
      writeHits += allHit ? 1 : 0;
    }
  }
  stats_.reads += reads;
  stats_.readHits += readHits;
  stats_.readMisses += reads - readHits;
  stats_.writes += writes;
  stats_.writeHits += writeHits;
  stats_.writeMisses += writes - writeHits;
}

void CacheSim::run(const Trace& trace) {
  for (const MemRef& ref : trace) {
    accessLinesFast(ref.addr >> lineShift_, lastByte(ref) >> lineShift_,
                    ref.type);
  }
}

void CacheSim::reset() {
  lines_.clear();
  std::fill(plruBits_.begin(), plruBits_.end(), 0u);
  clock_ = 0;
  stats_ = CacheStats{};
}

CacheStats simulateTrace(const CacheConfig& config, const Trace& trace) {
  CacheSim sim(config);
  sim.run(trace);
  return sim.stats();
}

}  // namespace memx
