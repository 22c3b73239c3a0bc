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

// Slot encodings. Each (level, set) recency list is a row of maxAssoc
// entries; slot d holds the (d+1)-th most recently touched line of that
// set as key = line + 1 (0 = empty) together with its dirty threshold,
// the smallest associativity at which the line is dirty (maxAssoc + 1 =
// clean everywhere; by inclusion dirtiness is monotone in
// associativity, so one threshold captures every tracked cache). A row
// type names where the two halves live: at(off) is the row `off`
// entries further on, load/store move whole entries, and key/threshold/
// entry take an entry apart and build one.

constexpr unsigned kDirtyShift = 56;
constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kDirtyShift) - 1;

/// Packed: the threshold rides in the top byte of the key slot, so the
/// ripple scan streams one array instead of two. Needs maxAssoc <= 254
/// (threshold fits a byte) and line indices up to kMaxLine (key fits
/// the low 56 bits).
struct PackedRow {
  using Entry = std::uint64_t;
  static constexpr std::uint64_t kMaxLine = kKeyMask - 1;

  std::uint64_t* slot;

  [[nodiscard]] PackedRow at(std::size_t off) const { return {slot + off}; }
  [[nodiscard]] Entry load(std::uint32_t d) const { return slot[d]; }
  void store(std::uint32_t d, Entry e) const { slot[d] = e; }
  [[nodiscard]] static std::uint64_t key(Entry e) { return e & kKeyMask; }
  [[nodiscard]] static std::uint32_t threshold(Entry e) {
    return static_cast<std::uint32_t>(e >> kDirtyShift);
  }
  [[nodiscard]] static Entry entry(std::uint64_t key,
                                   std::uint32_t threshold) {
    return key | (std::uint64_t{threshold} << kDirtyShift);
  }
};

/// Split: 32-bit thresholds in an array beside the keys. Serves every
/// geometry and every line index but 2^64 - 1, whose key would wrap to
/// the empty marker (reachable only with 1-byte lines).
struct SplitRow {
  struct Entry {
    std::uint64_t key;
    std::uint32_t threshold;
  };
  static constexpr std::uint64_t kMaxLine =
      std::numeric_limits<std::uint64_t>::max() - 1;

  std::uint64_t* slot;
  std::uint32_t* dirty;

  [[nodiscard]] SplitRow at(std::size_t off) const {
    return {slot + off, dirty + off};
  }
  [[nodiscard]] Entry load(std::uint32_t d) const {
    return {slot[d], dirty[d]};
  }
  void store(std::uint32_t d, Entry e) const {
    slot[d] = e.key;
    dirty[d] = e.threshold;
  }
  [[nodiscard]] static std::uint64_t key(Entry e) { return e.key; }
  [[nodiscard]] static std::uint32_t threshold(Entry e) {
    return e.threshold;
  }
  [[nodiscard]] static Entry entry(std::uint64_t key,
                                   std::uint32_t threshold) {
    return {key, threshold};
  }
};

/// Move-to-front touch of one bounded recency list: push the key in at
/// depth 0 and ripple the displaced entries down until we either find
/// the key's old position (its per-set stack distance), hit the empty
/// tail (cold), or fall off the end (distance >= maxAssoc; the LRU
/// entry drops, which is exact — no associativity <= maxAssoc can see
/// it before its next fill anyway, and its refill resets the dirty
/// threshold below, so dropping loses no writeback either). Cold and
/// dropped both return maxAssoc: "misses at every tracked way count".
///
/// An entry displaced from depth d to d + 1 leaves exactly the
/// (d+1)-way cache; when it is dirty there (threshold <= d + 1) that
/// cache writes it back, counted into dirtyEvict[d + 1]. The touched
/// key's own threshold becomes 1 on a write (hits dirty it,
/// write-allocate fills insert it dirty) and max(old, distance + 1) on
/// a read (caches that missed refill clean).
template <typename Row>
[[nodiscard]] inline std::uint32_t touchSet(Row row, std::uint64_t key,
                                            bool isWrite,
                                            std::uint32_t maxAssoc,
                                            std::uint64_t* dirtyEvict) {
  if (Row::key(row.load(0)) == key) {  // MRU re-touch: order already correct
    if (isWrite) row.store(0, Row::entry(key, 1));
    return 0;
  }
  const std::uint32_t clean = maxAssoc + 1;
  auto carry = Row::entry(key, clean);  // threshold patched below
  std::uint32_t dist = maxAssoc;
  std::uint32_t oldDirty = clean;  // cold/dropped keys refill afresh
  for (std::uint32_t d = 0; d < maxAssoc; ++d) {
    const auto cur = row.load(d);
    const std::uint64_t curKey = Row::key(cur);
    row.store(d, carry);
    if (curKey == key) {
      dist = d;
      oldDirty = Row::threshold(cur);
      break;
    }
    if (curKey == 0) break;
    // Branchless tally: adding the comparison bit beats a mostly-not-
    // taken branch that turns unpredictable under write-heavy traces.
    dirtyEvict[d + 1] += Row::threshold(cur) <= d + 1;
    carry = cur;
  }
  row.store(0, Row::entry(key, isWrite ? 1u : std::max(oldDirty, dist + 1)));
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

  // Every geometry with maxAssoc <= 254 starts packed; feed() migrates
  // to split the moment a line index outgrows 56 bits. Wider geometries
  // start split.
  slots_.assign(static_cast<std::size_t>(totalSlots), 0);
  if (maxAssoc_ + 1 <= std::numeric_limits<std::uint8_t>::max()) {
    mode_ = Mode::Packed;
  } else {
    mode_ = Mode::Split;
    dirty_.assign(static_cast<std::size_t>(totalSlots), maxAssoc_ + 1);
  }
}

AllAssocProfile::AllAssocProfile(const Trace& trace, std::uint32_t lineBytes,
                                 std::uint32_t maxSets,
                                 std::uint32_t maxAssoc)
    : AllAssocProfile(lineBytes, maxSets, maxAssoc) {
  feed(trace);
}

void AllAssocProfile::feed(const MemRef* refs, std::size_t count) {
  if (mode_ == Mode::Packed) {
    const std::size_t consumed =
        feedRows(PackedRow{slots_.data()}, refs, count);
    if (consumed == count) return;
    migrateFromPacked();
    refs += consumed;
    count -= consumed;
  }
  const std::size_t consumed =
      feedRows(SplitRow{slots_.data(), dirty_.data()}, refs, count);
  MEMX_EXPECTS(consumed == count,
               "line index 2^64 - 1 has no recency key (key = line + 1 "
               "wraps)");
}

void AllAssocProfile::migrateFromPacked() {
  // Empty slots (0) stay key 0; their threshold is never read by the
  // ripple scan but gets the "clean everywhere" value anyway.
  dirty_.assign(slots_.size(), maxAssoc_ + 1);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t packed = slots_[i];
    if (packed == 0) continue;
    dirty_[i] = PackedRow::threshold(packed);
    slots_[i] = PackedRow::key(packed);
  }
  mode_ = Mode::Split;
}

template <typename Row>
std::size_t AllAssocProfile::feedRows(Row slots, const MemRef* refs,
                                      std::size_t count) {
  const std::size_t buckets = bucketCount();

  // Hoisted per-level rows and set masks: the ripple scan runs once per
  // (probe, level), so index arithmetic shaved here is the profile's
  // dominant cost after the scan itself. Rebuilt per call — rows point
  // into slots_, which migration rewrites.
  std::vector<Row> level;
  std::vector<std::uint64_t> mask(numS_);
  level.reserve(numS_);
  for (unsigned s = 0; s < numS_; ++s) {
    level.push_back(slots.at(levelOffset(s, maxAssoc_)));
    mask[s] = (std::uint64_t{1} << s) - 1;
  }

  for (std::size_t i = 0; i < count; ++i) {
    const MemRef& ref = refs[i];
    const std::uint64_t firstLine = ref.addr >> lineShift_;
    const std::uint64_t lastLine = lastByte(ref) >> lineShift_;
    if (lastLine > Row::kMaxLine) return i;  // the caller migrates

    const bool readLike = isReadLike(ref.type);
    if (readLike) {
      ++reads_;
    } else {
      ++writes_;
    }
    auto& refHist = readLike ? refHistRead_ : refHistWrite_;

    // Probe one line at every level; tally(s, row, bucket) sees each
    // level's bucket. Per-set stack distance is non-increasing in the
    // set count (the finer set is a subset of the coarser conflict
    // set), so once a level reports MRU every remaining level is an MRU
    // re-touch too: no displacement, no eviction, only the bucket-0
    // tallies — and on a write, the threshold drop to 1 that
    // touchSet's MRU path would have applied.
    const auto probe = [&](std::uint64_t line, auto&& tally) {
      ++probes_;
      if (!readLike) ++writeProbes_;
      const std::uint64_t key = line + 1;
      std::size_t row = 0;
      unsigned s = 0;
      for (; s < numS_; ++s, row += buckets) {
        const std::uint32_t bucket =
            touchSet(level[s].at((line & mask[s]) * maxAssoc_), key,
                     !readLike, maxAssoc_, dirtyEvictHist_.data() + row);
        tally(s, row, bucket);
        if (bucket == 0) {
          ++s;
          row += buckets;
          break;
        }
      }
      if (readLike) {
        for (; s < numS_; ++s, row += buckets) tally(s, row, 0u);
      } else {
        const auto dirtyHead = Row::entry(key, 1);
        for (; s < numS_; ++s, row += buckets) {
          level[s].at((line & mask[s]) * maxAssoc_).store(0, dirtyHead);
          tally(s, row, 0u);
        }
      }
    };

    if (firstLine == lastLine) {
      // Fast path — an access contained in one line (the overwhelmingly
      // common case): the reference's worst bucket at each level is the
      // single probe's bucket, so both histograms update in one sweep.
      probe(firstLine, [&](unsigned, std::size_t row, std::uint32_t bucket) {
        ++lineHist_[row + bucket];
        ++refHist[row + bucket];
      });
      continue;
    }

    // A straddling reference misses a level iff any of its probes does
    // (CacheSim's per-access rule): keep its worst (deepest) bucket per
    // level.
    worst_.assign(numS_, 0);
    for (std::uint64_t line = firstLine;; ++line) {
      probe(line, [&](unsigned s, std::size_t row, std::uint32_t bucket) {
        ++lineHist_[row + bucket];
        if (bucket > worst_[s]) worst_[s] = bucket;
      });
      if (line == lastLine) break;
    }
    std::size_t row = 0;
    for (unsigned s = 0; s < numS_; ++s, row += buckets) {
      ++refHist[row + worst_[s]];
    }
  }
  return count;
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
