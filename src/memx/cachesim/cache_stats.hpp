// Hit/miss/traffic counters accumulated by the cache simulator.
#pragma once

#include <cstdint>

namespace memx {

/// Access and traffic counters for one simulation run.
struct CacheStats {
  std::uint64_t reads = 0;        ///< read accesses presented
  std::uint64_t writes = 0;       ///< write accesses presented
  std::uint64_t readHits = 0;
  std::uint64_t readMisses = 0;
  std::uint64_t writeHits = 0;
  std::uint64_t writeMisses = 0;
  std::uint64_t lineFills = 0;    ///< lines fetched from main memory
  std::uint64_t writebacks = 0;   ///< dirty lines written back on eviction
  std::uint64_t memWrites = 0;    ///< word writes to memory (write-through
                                  ///< stores)

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return reads + writes;
  }
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return readHits + writeHits;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return readMisses + writeMisses;
  }
  /// misses / accesses; 0 on an empty run.
  [[nodiscard]] double missRate() const noexcept {
    const auto n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(misses()) /
                              static_cast<double>(n);
  }
  /// hits / accesses; 0 on an empty run.
  [[nodiscard]] double hitRate() const noexcept {
    const auto n = accesses();
    return n == 0 ? 0.0 : static_cast<double>(hits()) /
                              static_cast<double>(n);
  }
  /// read misses / reads (the paper reasons about reads only).
  [[nodiscard]] double readMissRate() const noexcept {
    return reads == 0 ? 0.0 : static_cast<double>(readMisses) /
                                  static_cast<double>(reads);
  }
};

/// Field-wise difference. Every field is an additive, monotone
/// accumulator, so end-of-run minus a mid-run snapshot yields exactly
/// the statistics of the in-between region — the warmup-exclusion
/// mechanism of the streamed replay drivers. `b` must be a prior
/// snapshot of the run that produced `a`.
[[nodiscard]] inline CacheStats operator-(const CacheStats& a,
                                          const CacheStats& b) noexcept {
  CacheStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.readHits = a.readHits - b.readHits;
  d.readMisses = a.readMisses - b.readMisses;
  d.writeHits = a.writeHits - b.writeHits;
  d.writeMisses = a.writeMisses - b.writeMisses;
  d.lineFills = a.lineFills - b.lineFills;
  d.writebacks = a.writebacks - b.writebacks;
  d.memWrites = a.memWrites - b.memWrites;
  return d;
}

}  // namespace memx
