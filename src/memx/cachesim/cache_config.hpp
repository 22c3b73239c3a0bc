// Cache geometry and policy description.
//
// The MemExplore sweep of the paper enumerates (cache size T, line size L,
// set associativity S) in powers of two; CacheConfig is that triple plus
// the write/replacement policies a real simulator needs.
#pragma once

#include <cstdint>
#include <string>

namespace memx {

/// What happens to writes. Every cache is write-allocate: a write miss
/// fetches the line, then writes it under this policy.
enum class WritePolicy : std::uint8_t {
  WriteThrough,  ///< every write also goes to main memory
  WriteBack,     ///< dirty lines written back on eviction
};

/// Victim selection within a set.
enum class ReplacementPolicy : std::uint8_t {
  LRU,
  FIFO,
  Random,
  TreePLRU,  ///< tree pseudo-LRU, the common embedded hardware choice
};

[[nodiscard]] std::string toString(WritePolicy p);
[[nodiscard]] std::string toString(ReplacementPolicy p);

/// A fully-specified data-cache configuration.
///
/// Invariants (checked by validate(), which every consumer calls):
///  - sizeBytes, lineBytes, associativity are powers of two,
///  - lineBytes <= sizeBytes,
///  - associativity <= sizeBytes / lineBytes (ways cannot exceed lines).
struct CacheConfig {
  std::uint32_t sizeBytes = 64;      ///< total data capacity T
  std::uint32_t lineBytes = 8;       ///< line (block) size L
  std::uint32_t associativity = 1;   ///< ways per set S (1 = direct mapped)
  WritePolicy writePolicy = WritePolicy::WriteBack;
  ReplacementPolicy replacement = ReplacementPolicy::LRU;

  /// Total number of lines T / L.
  [[nodiscard]] std::uint32_t numLines() const noexcept {
    return sizeBytes / lineBytes;
  }
  /// Number of sets T / (L * S).
  [[nodiscard]] std::uint32_t numSets() const noexcept {
    return sizeBytes / (lineBytes * associativity);
  }
  /// True when every line is in one set.
  [[nodiscard]] bool isFullyAssociative() const noexcept {
    return numSets() == 1;
  }

  /// Throws memx::ContractViolation when the invariants do not hold.
  void validate() const;

  /// Short form like "C64L8S2" used in tables and logs.
  [[nodiscard]] std::string label() const;

  [[nodiscard]] friend bool operator==(const CacheConfig&,
                                       const CacheConfig&) = default;
};

/// Parse a label of the form "C<size>L<line>[S<ways>]" (the format
/// label() produces; case-insensitive). Policies take their defaults.
/// Throws memx::ContractViolation on malformed input or invalid
/// geometry.
[[nodiscard]] CacheConfig parseCacheLabel(const std::string& label);

}  // namespace memx
