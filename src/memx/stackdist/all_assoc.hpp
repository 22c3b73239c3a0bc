// All-associativity stack-distance analysis (Hill & Smith 1989).
//
// Mattson's observation gives every fully-associative LRU capacity from
// one trace pass; Hill and Smith generalized it to set-associative
// caches: under bit-selection indexing, an access hits in a cache with
// 2^s sets and A ways iff fewer than A distinct lines of the same set
// were touched since its previous touch. Conflict sets are nested in s
// (two lines that conflict at 2^s sets also conflict at every coarser
// set count), so one pass can maintain the per-set recency order for
// *every* power-of-two set count at once and read off exact LRU miss
// counts for the whole (sets, associativity) grid.
//
// Instead of Hill-Smith's single global stack walk (O(stack depth) per
// access), this implementation keeps, per set count, a bounded
// per-set recency list truncated to `maxAssoc` entries — the top of the
// true per-set LRU stack, which is all that associativities up to
// maxAssoc can distinguish. Distances at or beyond maxAssoc and cold
// (first-touch) lines fold into one "miss at every tracked
// associativity" bucket, making the per-probe cost a hard
// O(setCounts * maxAssoc) regardless of trace locality.
//
// The profile is exact — not an estimate — for LRU replacement with
// write-allocate fills, where every probe (hit or fill) refreshes
// recency and the set therefore holds exactly the maxAssoc most
// recently touched lines mapping to it.
//
// Write-back traffic falls out of the same pass (dirty-stack
// accounting): by inclusion, a resident line's dirty state is monotone
// in associativity — it entered the A'-way cache no later than the
// A-way one for A' > A, so "written since fill" at A implies it at A'.
// Each recency entry therefore carries one threshold (the smallest
// associativity at which it is dirty): a write touch lowers it to 1
// everywhere (hits dirty the line, write-allocate fills insert it
// dirty), a read touch at stack distance d refills caches with A <= d
// clean (threshold raised to d+1). A displaced entry rippling from
// depth d to d+1 is exactly an eviction from the (d+1)-way cache, so
// comparing its threshold against d+1 during the scan yields the exact
// per-associativity writeback count with no extra passes. Lines still
// dirty when the trace ends are never written back, matching CacheSim.
// ConfigBank (core/config_bank.hpp) is the config-facing wrapper; see
// `docs/TESTING.md` for the oracle layers that pin this equivalence.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/cachesim/cache_stats.hpp"
#include "memx/cachesim/cache_config.hpp"
#include "memx/trace/trace.hpp"
#include "memx/util/cache_line.hpp"

namespace memx {

/// Exact LRU/write-allocate hit-miss profile of one trace at one line
/// size, for every numSets in {1, 2, 4, ..., maxSets} and every
/// associativity in [1, maxAssoc].
class AllAssocProfile {
public:
  /// Empty profile ready for incremental feed(). `lineBytes` and
  /// `maxSets` must be powers of two, `maxAssoc` >= 1. Accesses
  /// straddling line boundaries probe each touched line, exactly like
  /// CacheSim.
  AllAssocProfile(std::uint32_t lineBytes, std::uint32_t maxSets,
                  std::uint32_t maxAssoc);

  /// One pass over `trace` (equivalent to the empty constructor plus a
  /// single feed of the whole trace).
  AllAssocProfile(const Trace& trace, std::uint32_t lineBytes,
                  std::uint32_t maxSets, std::uint32_t maxAssoc);

  /// Present `count` further references, in trace order. Splitting a
  /// trace into any sequence of feed() calls yields bit-identical
  /// histograms to one whole-trace pass — recency state persists across
  /// calls — which is what lets out-of-core traces stream through in
  /// chunks. Every accessor below is valid between feeds and reports
  /// the profile of the references seen so far. Throws
  /// ContractViolation on a reference lastByte() rejects, or one that
  /// touches line index 2^64 - 1.
  void feed(const MemRef* refs, std::size_t count);
  void feed(const Trace& trace) { feed(trace.refs().data(), trace.size()); }

  [[nodiscard]] std::uint32_t lineBytes() const noexcept {
    return lineBytes_;
  }
  [[nodiscard]] std::uint32_t maxSets() const noexcept {
    return 1u << (numS_ - 1);
  }
  [[nodiscard]] std::uint32_t maxAssoc() const noexcept { return maxAssoc_; }

  /// References presented (read-like + writes), line probes made.
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return reads_ + writes_;
  }
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t lineProbes() const noexcept { return probes_; }

  /// Exact miss count of an LRU write-allocate cache with `numSets`
  /// sets of `assoc` ways (numSets a power of two <= maxSets, assoc in
  /// [1, maxAssoc]). A reference misses when any of its line probes
  /// misses, mirroring CacheSim's per-access accounting.
  [[nodiscard]] std::uint64_t misses(std::uint32_t numSets,
                                     std::uint32_t assoc) const;
  [[nodiscard]] std::uint64_t readMisses(std::uint32_t numSets,
                                         std::uint32_t assoc) const;
  [[nodiscard]] std::uint64_t writeMisses(std::uint32_t numSets,
                                          std::uint32_t assoc) const;
  /// Line fills (one per missing probe; write-allocate fills included).
  [[nodiscard]] std::uint64_t lineFills(std::uint32_t numSets,
                                        std::uint32_t assoc) const;
  /// Exact count of dirty lines a write-back LRU write-allocate cache
  /// with this geometry evicts (and hence writes back) over the trace.
  /// Dirty lines still resident at trace end are not counted — CacheSim
  /// does not flush either.
  [[nodiscard]] std::uint64_t writebacks(std::uint32_t numSets,
                                         std::uint32_t assoc) const;

  /// CacheStats exactly as CacheSim would report them for an LRU
  /// write-allocate cache with this geometry — every field, both write
  /// policies. `writebacks` is the exact dirty-eviction count under
  /// write-back (see writebacks(); structurally 0 under write-through,
  /// where lines never dirty). `memWrites` is exact for write-through
  /// (one word store per write probe) and exactly 0 for write-back with
  /// write-allocate, both as CacheSim reports them.
  [[nodiscard]] CacheStats stats(std::uint32_t numSets, std::uint32_t assoc,
                                 WritePolicy writePolicy) const;

private:
  /// Bucket index of a per-set stack distance: the exact distance when
  /// < maxAssoc_, else maxAssoc_ ("misses at every tracked way count";
  /// cold first touches land here too).
  [[nodiscard]] std::size_t bucketCount() const noexcept {
    return maxAssoc_ + std::size_t{1};
  }
  [[nodiscard]] unsigned levelOf(std::uint32_t numSets) const;
  [[nodiscard]] std::uint64_t tailSum(const PaddedVector<std::uint64_t>& hist,
                                      unsigned level,
                                      std::uint32_t assoc) const;

  /// The one feeding pass, templated on the recency-slot encoding
  /// `Row` (all_assoc.cpp): PackedRow keeps each entry's dirty threshold
  /// in the top byte of its 64-bit key slot, so the ripple scan streams
  /// one array; SplitRow keeps 32-bit thresholds in dirty_ beside the
  /// keys. `slots` addresses the whole slot array. Returns the number of
  /// references consumed: a short count means the next reference touches
  /// a line index above Row::kMaxLine (its state is untouched) and feed()
  /// migrates to the split encoding before continuing; past the split
  /// bound (line 2^64 - 1, only reachable with 1-byte lines) feed()
  /// throws.
  template <typename Row>
  [[nodiscard]] std::size_t feedRows(Row slots, const MemRef* refs,
                                     std::size_t count);

  /// Decode the packed slots into split key + threshold arrays. The
  /// decoded state is exactly what a split pass over the same prefix
  /// would hold, so feeding continues bit-identically after migration.
  void migrateFromPacked();

  /// Recency-slot encoding in use. A profile with maxAssoc <= 254 (its
  /// thresholds fit a byte) starts Packed and migrates to Split at most
  /// once, when a line index outgrows 56 bits; a wider profile starts
  /// Split.
  enum class Mode { Packed, Split };

  std::uint32_t lineBytes_ = 0;
  std::uint32_t maxAssoc_ = 0;
  unsigned lineShift_ = 0;
  unsigned numS_ = 0;  ///< set-count levels: s in [0, numS_) -> 2^s sets

  // Flattened histograms, indexed [level * bucketCount() + bucket].
  PaddedVector<std::uint64_t> refHistRead_;  ///< per-reference worst bucket
  PaddedVector<std::uint64_t> refHistWrite_;
  PaddedVector<std::uint64_t> lineHist_;     ///< per-line-probe bucket
  /// Dirty evictions per exact associativity (slot a in [1, maxAssoc]
  /// counts writebacks of the a-way cache; slot 0 unused). A direct
  /// per-assoc count, not a tail distribution: an entry crossing depth
  /// a-1 -> a leaves exactly the a-way cache.
  PaddedVector<std::uint64_t> dirtyEvictHist_;

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t writeProbes_ = 0;  ///< probes belonging to write refs

  // Recency state, persistent across feed() calls. slots_ holds the
  // bounded per-(level, set) recency lists; in Packed mode each entry
  // carries its dirty threshold in the top byte, in Split mode the
  // thresholds live in the parallel dirty_ array.
  Mode mode_ = Mode::Packed;
  PaddedVector<std::uint64_t> slots_;
  PaddedVector<std::uint32_t> dirty_;
  PaddedVector<std::uint32_t> worst_;  ///< per-level scratch (straddles)
};

}  // namespace memx
