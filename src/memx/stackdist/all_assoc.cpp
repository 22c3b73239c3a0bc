#include "memx/stackdist/all_assoc.hpp"

#include <algorithm>
#include <limits>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {
namespace {

/// Flat-slot offset of set-count level `s`: levels 0..s-1 occupy
/// (2^0 + 2^1 + ... + 2^(s-1)) * maxAssoc = (2^s - 1) * maxAssoc slots.
[[nodiscard]] constexpr std::size_t levelOffset(unsigned s,
                                                std::uint32_t maxAssoc) {
  return (((std::size_t{1} << s) - 1)) * maxAssoc;
}

/// Move-to-front touch of one bounded recency list: push the key in at
/// depth 0 and ripple the displaced entries down until we either find
/// the key's old position (its per-set stack distance), hit the empty
/// tail (cold), or fall off the end (distance >= maxAssoc; the LRU
/// entry drops, which is exact — no associativity <= maxAssoc can see
/// it before its next fill anyway, and its refill resets the dirty
/// threshold below, so dropping loses no writeback either). Cold and
/// dropped both return maxAssoc: "misses at every tracked way count".
///
/// `dirty` parallels `slot`: dirty[d] is the smallest associativity at
/// which slot[d]'s line is dirty (maxAssoc + 1 = clean everywhere; by
/// inclusion dirtiness is monotone in associativity, so one threshold
/// captures every tracked cache). An entry displaced from depth d to
/// d + 1 leaves exactly the (d+1)-way cache; when it is dirty there
/// (threshold <= d + 1) that cache writes it back, counted into
/// dirtyEvict[d + 1]. The touched key's own threshold becomes 1 on a
/// write (hits dirty it, write-allocate fills insert it dirty) and
/// max(old, distance + 1) on a read (caches that missed refill clean).
///
/// Packed-entry layout (the default pass): the dirty threshold rides in
/// the top byte of the key slot itself, so the ripple scan touches one
/// array instead of two. Usable whenever the threshold fits a byte
/// (maxAssoc <= 254) and key = line + 1 fits the low 56 bits.
constexpr unsigned kDirtyShift = 56;
constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kDirtyShift) - 1;
/// Largest packable line index: key = line + 1 must stay below 2^56.
constexpr std::uint64_t kMaxPackedLine = kKeyMask - 1;

/// touchSet with the packed layout; same contract as the split-array
/// overload below, minus the separate dirty row.
[[nodiscard]] inline std::uint32_t touchSetPacked(std::uint64_t* slot,
                                                  std::uint64_t key,
                                                  bool isWrite,
                                                  std::uint32_t maxAssoc,
                                                  std::uint64_t* dirtyEvict) {
  const std::uint64_t head = slot[0];
  if ((head & kKeyMask) == key) {  // MRU re-touch: order already correct
    if (isWrite) slot[0] = key | (std::uint64_t{1} << kDirtyShift);
    return 0;
  }
  const std::uint32_t clean = maxAssoc + 1;
  std::uint64_t carry = key;  // threshold patched into slot[0] below
  std::uint32_t dist = maxAssoc;
  std::uint32_t oldDirty = clean;  // cold/dropped keys refill afresh
  for (std::uint32_t d = 0; d < maxAssoc; ++d) {
    const std::uint64_t cur = slot[d];
    const std::uint64_t curKey = cur & kKeyMask;
    slot[d] = carry;
    if (curKey == key) {
      dist = d;
      oldDirty = static_cast<std::uint32_t>(cur >> kDirtyShift);
      break;
    }
    if (curKey == 0) break;
    // Branchless tally: adding the comparison bit beats a mostly-not-
    // taken branch that turns unpredictable under write-heavy traces.
    dirtyEvict[d + 1] += (cur >> kDirtyShift) <= d + 1;
    carry = cur;
  }
  const std::uint64_t thresh = isWrite ? 1u : std::max(oldDirty, dist + 1);
  slot[0] = key | (thresh << kDirtyShift);
  return dist;
}

/// DirtyT is the threshold element type — uint8_t whenever
/// maxAssoc + 1 fits (see AllAssocProfile::buildProfile), so the whole
/// per-set dirty row rides along in one cache line.
template <typename DirtyT>
[[nodiscard]] inline std::uint32_t touchSet(std::uint64_t* slot,
                                            DirtyT* dirty, std::uint64_t key,
                                            bool isWrite,
                                            std::uint32_t maxAssoc,
                                            std::uint64_t* dirtyEvict) {
  if (slot[0] == key) {  // MRU re-touch: order already correct
    if (isWrite) dirty[0] = 1;
    return 0;
  }
  const std::uint32_t clean = maxAssoc + 1;
  std::uint64_t carry = key;
  DirtyT carryDirty = static_cast<DirtyT>(clean);  // patched below
  std::uint32_t dist = maxAssoc;
  std::uint32_t oldDirty = clean;  // cold/dropped keys refill afresh
  for (std::uint32_t d = 0; d < maxAssoc; ++d) {
    const std::uint64_t cur = slot[d];
    const DirtyT curDirty = dirty[d];
    slot[d] = carry;
    dirty[d] = carryDirty;
    if (cur == key) {
      dist = d;
      oldDirty = curDirty;
      break;
    }
    if (cur == 0) break;
    // Branchless tally: adding the comparison bit beats a mostly-not-
    // taken branch that turns unpredictable under write-heavy traces.
    dirtyEvict[d + 1] += curDirty <= d + 1;
    carry = cur;
    carryDirty = curDirty;
  }
  dirty[0] = static_cast<DirtyT>(
      isWrite ? 1u : std::max(oldDirty, dist + 1));
  return dist;
}

}  // namespace

AllAssocProfile::AllAssocProfile(std::uint32_t lineBytes,
                                 std::uint32_t maxSets,
                                 std::uint32_t maxAssoc)
    : lineBytes_(lineBytes), maxAssoc_(maxAssoc) {
  MEMX_EXPECTS(isPow2(lineBytes), "lineBytes must be a power of two");
  MEMX_EXPECTS(isPow2(maxSets), "maxSets must be a power of two");
  MEMX_EXPECTS(maxAssoc >= 1, "maxAssoc must be at least 1");
  // The per-level slot arrays total (2*maxSets - 1) * maxAssoc entries;
  // keep that well under memory limits (this bound still covers every
  // geometry pow2Range can produce by orders of magnitude).
  const auto totalSlots =
      (2 * static_cast<std::uint64_t>(maxSets) - 1) * maxAssoc;
  MEMX_EXPECTS(totalSlots <= (std::uint64_t{1} << 28),
               "maxSets * maxAssoc grid too large");

  lineShift_ = log2Exact(lineBytes);
  numS_ = log2Exact(maxSets) + 1;

  const std::size_t buckets = bucketCount();
  refHistRead_.assign(numS_ * buckets, 0);
  refHistWrite_.assign(numS_ * buckets, 0);
  lineHist_.assign(numS_ * buckets, 0);
  dirtyEvictHist_.assign(numS_ * buckets, 0);
  worst_.assign(numS_, 0);

  // Recency lists for every (level, set): slot d holds the (d+1)-th
  // most recently touched line of that set, encoded as line+1 so 0 is
  // "empty". Fast path: thresholds fit a byte for every geometry with
  // maxAssoc <= 254 and line indices fit 56 bits for every address
  // below 2^(56 + lineShift), so the packed single-array pass serves
  // essentially all real traces; feed() migrates to the split arrays
  // the moment a reference breaks the address bound. Geometries whose
  // thresholds don't fit a byte start split with 32-bit thresholds.
  slots_.assign(static_cast<std::size_t>(totalSlots), 0);
  const bool fitsByte =
      maxAssoc_ + 1 <= std::numeric_limits<std::uint8_t>::max();
  if (fitsByte) {
    mode_ = Mode::Packed;
  } else {
    mode_ = Mode::Split32;
    dirty32_.assign(static_cast<std::size_t>(totalSlots), maxAssoc_ + 1);
  }
}

AllAssocProfile::AllAssocProfile(const Trace& trace, std::uint32_t lineBytes,
                                 std::uint32_t maxSets,
                                 std::uint32_t maxAssoc)
    : AllAssocProfile(lineBytes, maxSets, maxAssoc) {
  feed(trace);
}

void AllAssocProfile::feed(const MemRef* refs, std::size_t count) {
  if (count == 0) return;
  if (mode_ == Mode::Packed) {
    const std::size_t consumed = feedPacked(refs, count);
    if (consumed == count) return;
    migrateFromPacked();
    refs += consumed;
    count -= consumed;
  }
  if (mode_ == Mode::Split8) {
    feedSplit<std::uint8_t>(refs, count);
  } else {
    feedSplit<std::uint32_t>(refs, count);
  }
}

void AllAssocProfile::migrateFromPacked() {
  // Unpack threshold-in-top-byte entries into the parallel byte array.
  // Empty slots (0) stay key 0; their threshold is never read by the
  // ripple scan but gets the "clean everywhere" value anyway.
  dirty8_.assign(slots_.size(), static_cast<std::uint8_t>(maxAssoc_ + 1));
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t packed = slots_[i];
    if (packed == 0) continue;
    dirty8_[i] = static_cast<std::uint8_t>(packed >> kDirtyShift);
    slots_[i] = packed & kKeyMask;
  }
  mode_ = Mode::Split8;
}

std::size_t AllAssocProfile::feedPacked(const MemRef* refs,
                                        std::size_t count) {
  const std::size_t buckets = bucketCount();

  // Hoisted per-level slot bases and set masks: the ripple scan runs
  // once per (probe, level), so index arithmetic shaved here is the
  // profile's dominant cost after the scan itself. Rebuilt per feed
  // call — pointers into slots_ must not outlive a call (migration
  // reuses the storage).
  std::vector<std::uint64_t*> base(numS_);
  std::vector<std::uint64_t> mask(numS_);
  for (unsigned s = 0; s < numS_; ++s) {
    base[s] = slots_.data() + levelOffset(s, maxAssoc_);
    mask[s] = (std::uint64_t{1} << s) - 1;
  }

  // Per-reference worst (deepest) bucket at each level, so a reference
  // that straddles lines is counted as a miss iff any probe misses —
  // the same per-access accounting CacheSim uses.
  PaddedVector<std::uint32_t>& worst = worst_;

  for (std::size_t i = 0; i < count; ++i) {
    const MemRef& ref = refs[i];
    MEMX_EXPECTS(ref.size > 0, "access size must be positive");

    const std::uint64_t firstLine = ref.addr >> lineShift_;
    const std::uint64_t lastLine = (ref.addr + ref.size - 1) >> lineShift_;
    if (firstLine > kMaxPackedLine || lastLine > kMaxPackedLine) {
      return i;  // beyond the packable range (or wrapped): migrate
    }

    const bool readLike = isReadLike(ref.type);
    if (readLike) {
      ++reads_;
    } else {
      ++writes_;
    }
    auto& refHist = readLike ? refHistRead_ : refHistWrite_;

    if (firstLine == lastLine) {
      // Fast path — an access contained in one line (the overwhelmingly
      // common case): the reference's worst bucket at each level is the
      // single probe's bucket, so both histograms update in one sweep
      // and the per-reference `worst` merge is skipped entirely.
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = firstLine + 1;
      std::size_t row = 0;
      unsigned s = 0;
      for (; s < numS_; ++s, row += buckets) {
        const std::size_t off = (firstLine & mask[s]) * maxAssoc_;
        const std::uint32_t bucket =
            touchSetPacked(base[s] + off, key, !readLike, maxAssoc_,
                           dirtyEvictHist_.data() + row);
        ++lineHist_[row + bucket];
        ++refHist[row + bucket];
        if (bucket == 0) {
          ++s;
          row += buckets;
          break;
        }
      }
      // Per-set stack distance is non-increasing in the set count (the
      // finer set is a subset of the coarser conflict set), so once a
      // level reports MRU every remaining level is an MRU re-touch too:
      // no displacement, no eviction, only the bucket-0 tallies — and
      // on a write, the threshold drop to 1 that touchSetPacked's MRU
      // path would have applied.
      if (readLike) {
        for (; s < numS_; ++s, row += buckets) {
          ++lineHist_[row];
          ++refHist[row];
        }
      } else {
        const std::uint64_t dirtyHead =
            key | (std::uint64_t{1} << kDirtyShift);
        for (; s < numS_; ++s, row += buckets) {
          base[s][(firstLine & mask[s]) * maxAssoc_] = dirtyHead;
          ++lineHist_[row];
          ++refHist[row];
        }
      }
      continue;
    }

    worst.assign(numS_, 0);
    for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = line + 1;
      std::size_t row = 0;
      unsigned s = 0;
      for (; s < numS_; ++s, row += buckets) {
        const std::size_t off = (line & mask[s]) * maxAssoc_;
        const std::uint32_t bucket =
            touchSetPacked(base[s] + off, key, !readLike, maxAssoc_,
                           dirtyEvictHist_.data() + row);
        ++lineHist_[row + bucket];
        if (bucket > worst[s]) worst[s] = bucket;
        if (bucket == 0) {
          ++s;
          row += buckets;
          break;
        }
      }
      // Same MRU cascade as the single-line path (bucket 0 never
      // raises `worst`, so only the tallies and the write-path
      // threshold drop remain).
      if (readLike) {
        for (; s < numS_; ++s, row += buckets) ++lineHist_[row];
      } else {
        const std::uint64_t dirtyHead =
            key | (std::uint64_t{1} << kDirtyShift);
        for (; s < numS_; ++s, row += buckets) {
          base[s][(line & mask[s]) * maxAssoc_] = dirtyHead;
          ++lineHist_[row];
        }
      }
    }

    std::size_t row = 0;
    for (unsigned s = 0; s < numS_; ++s, row += buckets) {
      ++refHist[row + worst[s]];
    }
  }
  return count;
}

namespace {

template <typename DirtyT>
[[nodiscard]] DirtyT* dirtyArray(PaddedVector<std::uint8_t>& dirty8,
                                 PaddedVector<std::uint32_t>& dirty32);
template <>
std::uint8_t* dirtyArray<std::uint8_t>(PaddedVector<std::uint8_t>& dirty8,
                                       PaddedVector<std::uint32_t>&) {
  return dirty8.data();
}
template <>
std::uint32_t* dirtyArray<std::uint32_t>(
    PaddedVector<std::uint8_t>&, PaddedVector<std::uint32_t>& dirty32) {
  return dirty32.data();
}

}  // namespace

template <typename DirtyT>
void AllAssocProfile::feedSplit(const MemRef* refs, std::size_t count) {
  // `dirtyFrom` parallels slots_ with each entry's dirty threshold (the
  // smallest associativity at which the line is dirty; maxAssoc + 1 =
  // clean everywhere).
  DirtyT* const dirtyFrom = dirtyArray<DirtyT>(dirty8_, dirty32_);

  const std::size_t buckets = bucketCount();

  // Hoisted per-level slot bases and set masks: the ripple scan runs
  // once per (probe, level), so index arithmetic shaved here is the
  // profile's dominant cost after the scan itself.
  std::vector<std::uint64_t*> base(numS_);
  std::vector<DirtyT*> dirtyBase(numS_);
  std::vector<std::uint64_t> mask(numS_);
  for (unsigned s = 0; s < numS_; ++s) {
    base[s] = slots_.data() + levelOffset(s, maxAssoc_);
    dirtyBase[s] = dirtyFrom + levelOffset(s, maxAssoc_);
    mask[s] = (std::uint64_t{1} << s) - 1;
  }

  // Per-reference worst (deepest) bucket at each level, so a reference
  // that straddles lines is counted as a miss iff any probe misses —
  // the same per-access accounting CacheSim uses.
  PaddedVector<std::uint32_t>& worst = worst_;

  for (std::size_t i = 0; i < count; ++i) {
    const MemRef& ref = refs[i];
    MEMX_EXPECTS(ref.size > 0, "access size must be positive");
    const bool readLike = isReadLike(ref.type);
    if (readLike) {
      ++reads_;
    } else {
      ++writes_;
    }
    auto& refHist = readLike ? refHistRead_ : refHistWrite_;

    const std::uint64_t firstLine = ref.addr >> lineShift_;
    const std::uint64_t lastLine = (ref.addr + ref.size - 1) >> lineShift_;

    if (firstLine == lastLine) {
      // Fast path — an access contained in one line (the overwhelmingly
      // common case): the reference's worst bucket at each level is the
      // single probe's bucket, so both histograms update in one sweep
      // and the per-reference `worst` merge is skipped entirely.
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = firstLine + 1;
      std::size_t row = 0;
      for (unsigned s = 0; s < numS_; ++s, row += buckets) {
        const std::size_t off = (firstLine & mask[s]) * maxAssoc_;
        const std::uint32_t bucket =
            touchSet(base[s] + off, dirtyBase[s] + off, key, !readLike,
                     maxAssoc_, dirtyEvictHist_.data() + row);
        ++lineHist_[row + bucket];
        ++refHist[row + bucket];
      }
      continue;
    }

    worst.assign(numS_, 0);
    for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = line + 1;
      std::size_t row = 0;
      for (unsigned s = 0; s < numS_; ++s, row += buckets) {
        const std::size_t off = (line & mask[s]) * maxAssoc_;
        const std::uint32_t bucket =
            touchSet(base[s] + off, dirtyBase[s] + off, key, !readLike,
                     maxAssoc_, dirtyEvictHist_.data() + row);
        ++lineHist_[row + bucket];
        if (bucket > worst[s]) worst[s] = bucket;
      }
      if (line == std::numeric_limits<std::uint64_t>::max()) break;
    }

    std::size_t row = 0;
    for (unsigned s = 0; s < numS_; ++s, row += buckets) {
      ++refHist[row + worst[s]];
    }
  }
}

unsigned AllAssocProfile::levelOf(std::uint32_t numSets) const {
  MEMX_EXPECTS(isPow2(numSets), "numSets must be a power of two");
  const unsigned s = log2Exact(numSets);
  MEMX_EXPECTS(s < numS_, "numSets exceeds the profiled maxSets");
  return s;
}

std::uint64_t AllAssocProfile::tailSum(const PaddedVector<std::uint64_t>& hist,
                                       unsigned level,
                                       std::uint32_t assoc) const {
  MEMX_EXPECTS(assoc >= 1 && assoc <= maxAssoc_,
               "associativity outside the profiled range");
  std::uint64_t sum = 0;
  for (std::size_t b = assoc; b <= maxAssoc_; ++b) {
    sum += hist[level * bucketCount() + b];
  }
  return sum;
}

std::uint64_t AllAssocProfile::misses(std::uint32_t numSets,
                                      std::uint32_t assoc) const {
  return readMisses(numSets, assoc) + writeMisses(numSets, assoc);
}

std::uint64_t AllAssocProfile::readMisses(std::uint32_t numSets,
                                          std::uint32_t assoc) const {
  return tailSum(refHistRead_, levelOf(numSets), assoc);
}

std::uint64_t AllAssocProfile::writeMisses(std::uint32_t numSets,
                                           std::uint32_t assoc) const {
  return tailSum(refHistWrite_, levelOf(numSets), assoc);
}

std::uint64_t AllAssocProfile::lineFills(std::uint32_t numSets,
                                         std::uint32_t assoc) const {
  return tailSum(lineHist_, levelOf(numSets), assoc);
}

std::uint64_t AllAssocProfile::writebacks(std::uint32_t numSets,
                                          std::uint32_t assoc) const {
  const unsigned level = levelOf(numSets);
  MEMX_EXPECTS(assoc >= 1 && assoc <= maxAssoc_,
               "associativity outside the profiled range");
  // A direct per-assoc count (not a tail sum): each dirty eviction was
  // recorded against exactly the one associativity that lost the line.
  return dirtyEvictHist_[level * bucketCount() + assoc];
}

CacheStats AllAssocProfile::stats(std::uint32_t numSets, std::uint32_t assoc,
                                  WritePolicy writePolicy) const {
  CacheStats out;
  out.reads = reads_;
  out.writes = writes_;
  out.readMisses = readMisses(numSets, assoc);
  out.readHits = reads_ - out.readMisses;
  out.writeMisses = writeMisses(numSets, assoc);
  out.writeHits = writes_ - out.writeMisses;
  out.lineFills = lineFills(numSets, assoc);
  // Write-through lines never dirty, so only write-back evicts dirty
  // lines; conversely only write-through stores words through to
  // memory. Both match CacheSim field for field.
  out.writebacks = writePolicy == WritePolicy::WriteBack
                       ? writebacks(numSets, assoc)
                       : 0;
  out.memWrites =
      writePolicy == WritePolicy::WriteThrough ? writeProbes_ : 0;
  return out;
}

}  // namespace memx
