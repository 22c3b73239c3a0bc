// Single-pass (sets, ways) grid evaluation for FIFO and tree-PLRU.
//
// FIFO and tree-PLRU are not stack algorithms: neither admits a
// capacity-independent priority ordering, and their contents are not
// even inclusive across way counts (Bélády's anomaly — see the pinned
// instance in tests/stackdist_test.cpp, where FIFO misses *increase*
// with ways at fixed capacity). So no Mattson/Hill–Smith histogram can
// serve these grids; what one pass *can* amortize is everything the
// cells share. PolicyGridProfile keeps genuine per-cell replacement
// state for every (2^s sets, 2^j ways) cell with 2^s <= maxSets and
// 2^j <= maxAssoc, and spends one address decode, one set-index
// shift/mask cascade and one streamed trace chunk across all of them:
//
//  - per cell, the key array holds the resident lines of each set
//    (encoded line + 1, 0 = empty) plus compact policy state: a
//    round-robin fill cursor for FIFO (fills prefer the first empty
//    way and stamps are written only on fill, so the oldest fill *is*
//    a cyclic cursor) and the PLRU tree bits packed into one word per
//    set — and a per-way dirty bitmask, because a line's dirty state
//    depends on when that particular cell filled it (the dirty
//    thresholds of AllAssocProfile ride on inclusion, which FIFO/PLRU
//    lack, so there is no monotone shortcut here);
//
//  - a Hill–Smith-style MRU short-circuit where the policies permit:
//    after any probe of line X, X is resident in every cell of its
//    set, so a re-probe is a FIFO no-op and an idempotent PLRU tree
//    touch. One MRU key per (set level, set) decides it, and because a
//    finer set's probe sequence is a subsequence of its enclosing
//    coarser set's, an MRU match at level s covers every finer level
//    too — the whole remaining cascade is skipped. Writes additionally
//    require the MRU line to be dirty everywhere (tracked by one flag
//    beside the key) or they fall through to set per-cell dirty bits.
//
// Hits cost no per-cell counter updates: only misses, fills and dirty
// evictions are tallied, and stats() derives hits by subtraction, so
// the MRU fast path really is a handful of compares per reference.
//
// Because the cells are fully independent (no inclusion ties them
// together), a pass may legally simulate any subset of the grid:
// restrictCells() masks the pass down to exactly the (sets, ways)
// pairs a bank will query, which is what keeps a sweep's grid pass
// cheaper than per-config simulation even when the bank touches only
// a diagonal of the lattice. Set levels with no active cell drop out
// of the cascade entirely: each level's MRU state is self-contained
// (a full cascade rewrites the MRU key of every coarser active level
// it passes, so a break can never fire on a stale key), and the
// coarse-to-fine covering argument runs unchanged over the remaining
// levels.
//
// The profile is exact — CacheSim bit-for-bit, both write policies —
// for FIFO or TreePLRU replacement with write-allocate fills.
// ConfigBank (core/config_bank.hpp) is the config-facing wrapper; see
// docs/TESTING.md for the dual-oracle layers (RefCacheSim and the
// retired Mattson walk) that pin the equivalence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/trace/trace.hpp"
#include "memx/util/cache_line.hpp"

namespace memx {

/// Exact FIFO or tree-PLRU write-allocate hit-miss profile of one trace
/// at one line size, for every numSets in {1, 2, ..., maxSets} and
/// every associativity in {1, 2, ..., maxAssoc} (both power-of-two
/// grids — CacheConfig admits no other way counts).
class PolicyGridProfile {
public:
  /// Empty profile ready for incremental feed(). `lineBytes`, `maxSets`
  /// and `maxAssoc` must be powers of two, maxAssoc <= 64 (the dirty
  /// mask and PLRU tree bits of one set pack into a word), `policy`
  /// FIFO or TreePLRU. Accesses straddling line boundaries probe each
  /// touched line, exactly like CacheSim.
  PolicyGridProfile(ReplacementPolicy policy, std::uint32_t lineBytes,
                    std::uint32_t maxSets, std::uint32_t maxAssoc);

  /// One pass over `trace` (equivalent to the empty constructor plus a
  /// single feed of the whole trace).
  PolicyGridProfile(const Trace& trace, ReplacementPolicy policy,
                    std::uint32_t lineBytes, std::uint32_t maxSets,
                    std::uint32_t maxAssoc);

  /// Restrict the pass to the given (numSets, associativity) cells:
  /// every listed pair must lie inside the profiled grid, and only
  /// those cells are simulated (and chargeable) from here on. Must be
  /// called before the first feed — the unlisted cells' state is never
  /// advanced, so querying them afterwards violates the accessor
  /// contracts below and throws. Listed cells report bit-identical
  /// counts to an unrestricted pass (cells are independent; see the
  /// header comment).
  void restrictCells(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cells);

  /// Present `count` further references, in trace order. Splitting a
  /// trace into any sequence of feed() calls yields bit-identical
  /// counts to one whole-trace pass — cell state persists across calls
  /// — so out-of-core traces stream through in chunks. Every accessor
  /// below is valid between feeds. Throws ContractViolation on a
  /// reference lastByte() rejects, or one that touches line index
  /// 2^64 - 1.
  void feed(const MemRef* refs, std::size_t count);
  void feed(const Trace& trace) { feed(trace.refs().data(), trace.size()); }

  [[nodiscard]] ReplacementPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint32_t lineBytes() const noexcept {
    return lineBytes_;
  }
  [[nodiscard]] std::uint32_t maxSets() const noexcept {
    return 1u << (numS_ - 1);
  }
  [[nodiscard]] std::uint32_t maxAssoc() const noexcept {
    return 1u << (numJ_ - 1);
  }
  /// Number of (sets, ways) cells simulated by the pass — the full
  /// grid, or the restricted subset after restrictCells().
  [[nodiscard]] std::size_t cellCount() const noexcept {
    return activeCells_;
  }

  /// References presented (read-like + writes), line probes made.
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return reads_ + writes_;
  }
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t lineProbes() const noexcept { return probes_; }

  /// Exact miss count of a cache with `numSets` sets of `assoc` ways
  /// under this profile's replacement policy (both powers of two within
  /// the profiled grid). A reference misses when any of its line probes
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
  /// Exact count of dirty lines a write-back cache with this geometry
  /// evicts (and hence writes back) over the trace. Dirty lines still
  /// resident at trace end are not counted — CacheSim does not flush
  /// either.
  [[nodiscard]] std::uint64_t writebacks(std::uint32_t numSets,
                                         std::uint32_t assoc) const;

  /// CacheStats exactly as CacheSim would report them for a
  /// write-allocate cache of this geometry and policy — every field,
  /// both write policies (same contract as AllAssocProfile::stats).
  [[nodiscard]] CacheStats stats(std::uint32_t numSets, std::uint32_t assoc,
                                 WritePolicy writePolicy) const;

private:
  /// One active set level of the feed cascade, precomputed so the hot
  /// loop runs on flat descriptors instead of re-deriving masks and
  /// offsets per probe. State is laid out set-major within a level:
  /// all active cells' key slots (and per-set words) for one set index
  /// sit in one contiguous strip, so a probe touches one or two cache
  /// lines instead of one scattered block per cell.
  struct LevelPlan {
    std::uint32_t s = 0;           ///< set level: 2^s sets
    std::uint64_t setMask = 0;     ///< (1 << s) - 1
    std::size_t mruBase = 0;       ///< this level's block in mruKey_
    std::size_t keyBase = 0;       ///< this level's block in keys_
    std::size_t setBase = 0;       ///< this level's per-set-word block
    std::uint32_t keyStride = 0;   ///< key slots per set strip
    std::uint32_t setStride = 0;   ///< per-set words per set strip
    std::uint32_t cellBegin = 0;   ///< [cellBegin, cellEnd) in cellPlan_
    std::uint32_t cellEnd = 0;
  };
  /// One active cell of a level: its counter index and strip offsets.
  struct CellPlan {
    std::uint32_t j = 0;       ///< way level: 2^j ways
    std::uint32_t ways = 0;    ///< 1 << j
    std::uint32_t cell = 0;    ///< flat counter index s * numJ_ + j
    std::uint32_t keySub = 0;  ///< offset within a set's key strip
    std::uint32_t setSub = 0;  ///< offset within a set's word strip
  };

  /// Flat cell index of (set level s, way level j); validates the
  /// geometry lies inside the profiled grid but not that the cell is
  /// simulated.
  [[nodiscard]] std::size_t cellIndex(std::uint32_t numSets,
                                      std::uint32_t assoc) const;
  /// cellIndex plus the accessor contract: the cell must be active
  /// (i.e. not masked off by restrictCells).
  [[nodiscard]] std::size_t cellOf(std::uint32_t numSets,
                                   std::uint32_t assoc) const;

  /// Rebuild the plan descriptors and (re)allocate the replacement
  /// state from levelMask_. Only legal while no reference has been
  /// fed — the state is zeroed.
  void rebuildPlan();

  template <bool kFifo>
  void feedImpl(const MemRef* refs, std::size_t count);

  /// Probe every active cell of one level for `key` on the slow path
  /// (the MRU short-circuit did not fire). Misses are charged straight
  /// to `missCounters` (the read or write per-cell counters); a
  /// straddling access (kStraddle) sets the anyMiss_ scratch flags
  /// instead so the caller can merge its probes.
  template <bool kFifo, bool kWrite, bool kStraddle>
  void probeLevel(const LevelPlan& level, std::uint64_t setIdx,
                  std::uint64_t key, std::uint64_t* missCounters);

  ReplacementPolicy policy_ = ReplacementPolicy::FIFO;
  std::uint32_t lineBytes_ = 0;
  unsigned lineShift_ = 0;
  unsigned numS_ = 0;  ///< set-count levels: s in [0, numS_) -> 2^s sets
  unsigned numJ_ = 0;  ///< way levels: j in [0, numJ_) -> 2^j ways
  std::size_t activeCells_ = 0;  ///< cells the pass simulates

  /// Per set level, a bitmask of the way levels j whose cell (s, j) is
  /// simulated; all-ones until restrictCells() narrows it. The feed
  /// cascade visits only the set bits (via the plan below), and levels
  /// whose mask is empty drop out of the cascade altogether — that is
  /// the whole cost model of a restricted pass.
  PaddedVector<std::uint32_t> levelMask_;
  /// Active levels in ascending (coarse-to-fine) order and their
  /// active cells, flattened; rebuilt by rebuildPlan().
  PaddedVector<LevelPlan> levels_;
  PaddedVector<CellPlan> cellPlan_;

  // Per-cell counters, indexed [s * numJ_ + j]. Hits are derived
  // (reads_/writes_ minus misses), so the fast path never touches them.
  PaddedVector<std::uint64_t> readMiss_;
  PaddedVector<std::uint64_t> writeMiss_;
  PaddedVector<std::uint64_t> lineFill_;
  PaddedVector<std::uint64_t> dirtyEvict_;

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t writeProbes_ = 0;  ///< probes belonging to write refs

  // Replacement state, laid out by rebuildPlan(). keys_ holds, per
  // active level, 2^s set strips of keyStride key slots (line + 1;
  // 0 = empty; valid slots form a prefix because fills prefer the
  // first empty way and nothing invalidates); a cell's slots start at
  // keySub within its set's strip. The per-set words — FIFO cursor,
  // PLRU tree bits, dirty way mask — are striped the same way with
  // setStride words per set.
  PaddedVector<std::uint64_t> keys_;
  PaddedVector<std::uint32_t> cursor_;    ///< FIFO round-robin fill way
  PaddedVector<std::uint64_t> treeBits_;  ///< PLRU tree (plru_tree.hpp)
  PaddedVector<std::uint64_t> dirtyMask_; ///< per-way dirty bits

  // MRU short-circuit state: per (active set level, set), the key of
  // the last line probed there and whether that probe left it dirty in
  // every cell of the set (see the header comment for the cross-level
  // covering argument). A level's block starts at its mruBase.
  PaddedVector<std::uint64_t> mruKey_;
  PaddedVector<std::uint8_t> mruDirty_;

  PaddedVector<std::uint8_t> anyMiss_;  ///< per-cell scratch (straddles)
};

}  // namespace memx
