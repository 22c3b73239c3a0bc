// Trace-driven set-associative cache simulator.
//
// This is the Dinero-class substrate the paper names as the alternative to
// its closed-form expressions: a functional (contents-free) simulator that
// tracks tags, dirtiness and replacement state, and reports hit/miss and
// traffic counts for an arbitrary reference stream.
#pragma once

#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/cache_stats.hpp"
#include "memx/trace/trace.hpp"
#include "memx/util/cache_line.hpp"

namespace memx {

/// Outcome of presenting one reference to the cache.
struct AccessOutcome {
  bool hit = true;           ///< whole access was a hit (all lines touched)
  std::uint32_t fills = 0;   ///< line fills this access caused
  std::uint32_t writebacks = 0;  ///< dirty evictions this access caused
  /// Byte addresses of the dirty lines evicted by this access (size ==
  /// writebacks); lets a next level absorb the write-back traffic.
  std::vector<std::uint64_t> evictedDirtyLines;
};

/// A reference pre-decomposed into its line span under some line size
/// (first/last are line indices). Lets one decomposition of a trace be
/// replayed against every cache sharing that line size.
struct LineSpan {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  AccessType type = AccessType::Read;
};

/// A single-level data cache.
///
/// Accesses wider than a line, or straddling a line boundary, are split
/// into per-line probes; the access counts as a miss if any probe misses.
class CacheSim {
public:
  /// Constructs an empty (all-invalid) cache. Throws on invalid config.
  explicit CacheSim(const CacheConfig& config, std::uint64_t rngSeed = 1);

  /// Present one reference; updates state and statistics.
  AccessOutcome access(const MemRef& ref);

  /// Statistics-only access to a pre-decomposed line span
  /// (firstLine/lastLine are line indices, i.e. addr / lineBytes):
  /// identical state and counter updates to access(), but no
  /// AccessOutcome (whose evicted-line list only matters to multi-level
  /// consumers). Returns true when the whole access hit.
  bool accessLinesFast(std::uint64_t firstLine, std::uint64_t lastLine,
                       AccessType type);

  /// Present a whole pre-decomposed trace, statistics-only. Equivalent to
  /// calling accessLinesFast once per span, in order; a single bulk call
  /// so the per-span probe inlines into one tight loop.
  void replaySpans(const LineSpan* spans, std::size_t count);

  /// Run a whole trace through the cache.
  void run(const Trace& trace);

  /// Drop all contents and statistics (configuration is kept).
  void reset();

  [[nodiscard]] const CacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// True when `addr`'s line is currently resident (no state change).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Number of currently valid lines (test/debug aid).
  [[nodiscard]] std::size_t validLineCount() const;

  /// Set index for a byte address under this geometry.
  [[nodiscard]] std::uint32_t setIndexOf(std::uint64_t addr) const noexcept;
  /// Tag for a byte address under this geometry.
  [[nodiscard]] std::uint64_t tagOf(std::uint64_t addr) const noexcept;

private:
  struct Line {
    std::uint64_t tag = 0;
    /// Replacement stamp. LRU reads it as last-use time (refreshed on
    /// every touch); FIFO reads it as fill time (written only on fill);
    /// Random and TreePLRU never read it. One field serves both, which
    /// keeps the line small — the set scan is the simulator's hot loop.
    std::uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
  };
  // LineArray relies on all-zero bytes being Line{} and on byte copies
  // being valid copies.
  static_assert(std::is_trivially_copyable_v<Line>);

  /// Owning array of Lines that starts all-zero, i.e. all Line{}.
  /// Arrays of at least 64 KiB are anonymous mappings, so pages the
  /// simulation never touches are never committed: a 2 MiB L2 with
  /// 8-byte lines holds 6 MiB of lines, of which a short L2 stream
  /// touches a few pages. Smaller arrays come from calloc. Copies
  /// allocate and memcpy; moves steal the pointer.
  class LineArray {
  public:
    LineArray() = default;
    explicit LineArray(std::size_t size);
    LineArray(const LineArray& other);
    LineArray(LineArray&& other) noexcept;
    LineArray& operator=(LineArray other) noexcept;
    ~LineArray();

    Line& operator[](std::size_t i) noexcept { return data_[i]; }
    const Line& operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] const Line* begin() const noexcept { return data_; }
    [[nodiscard]] const Line* end() const noexcept { return data_ + size_; }
    /// Invalidate every line (zero-fill in place).
    void clear() noexcept;

  private:
    Line* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Probe one line-sized piece of an access, keyed by line index
  /// (addr >> lineShift_). Returns true on hit. `outcome` may be null to
  /// skip per-access outcome bookkeeping (statistics and cache state
  /// update identically either way).
  bool probeLineIndex(std::uint64_t lineIndex, AccessType type,
                      AccessOutcome* outcome);
  /// Shared tail of access/accessLinesFast: per-access counters.
  void countAccess(bool allHit, AccessType type);
  [[nodiscard]] std::size_t victimWay(std::uint32_t setIndex);

  /// Point the set's PLRU tree away from the just-touched way (TreePLRU
  /// only).
  void plruTouch(std::uint32_t setIndex, std::size_t way);

  CacheConfig config_;
  // Geometry is all powers of two (validated), so the address splits
  // reduce to shifts and masks precomputed here.
  unsigned lineShift_ = 0;   ///< log2(lineBytes)
  unsigned setShift_ = 0;    ///< log2(numSets)
  std::uint64_t setMask_ = 0;  ///< numSets - 1
  LineArray lines_;  ///< numSets * associativity, set-major
  /// One tree per set (<= 64 ways); empty unless the policy is TreePLRU.
  PaddedVector<std::uint64_t> plruBits_;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
  std::mt19937_64 rng_;
};

/// Convenience: simulate `trace` on a fresh cache, return the statistics.
[[nodiscard]] CacheStats simulateTrace(const CacheConfig& config,
                                       const Trace& trace);

}  // namespace memx
