// The joint design space behind the multi-objective search engine.
//
// The paper's MemExplore loop sweeps (T, L, S, B) exhaustively; the
// search engine explores the *joint* space — cache geometry x
// replacement/write policy x tiling x layout choice x optional L2
// companion — which is far too large to enumerate. A point of that
// space is encoded as a fixed-length Genome of small integer indices
// into per-dimension value lists, so genetic operators are uniform
// per-gene index arithmetic and every genome packs into one canonical
// 64-bit fitness-cache key.
//
// Not every index tuple is a valid configuration (a line cannot exceed
// the cache, ways and tiles cannot exceed the line count, an L2 must
// hold at least twice the L1). repair() maps any genome to a valid one
// deterministically and idempotently: crossover and mutation compose
// with repair instead of carrying per-operator validity logic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/core/design_point.hpp"
#include "memx/core/explorer.hpp"

namespace memx::search {

/// Number of genes; see Gene for the dimension order.
inline constexpr std::size_t kGeneCount = 8;

/// A point of the joint space: per-dimension indices into the
/// DesignSpace value lists, in Gene order.
using Genome = std::array<std::uint8_t, kGeneCount>;

/// Dimension order of a Genome. The geometry genes come first so the
/// packed key sorts by (T, L, S, B) like ConfigKey does.
enum class Gene : std::size_t {
  CacheBytes = 0,  ///< T
  LineBytes,       ///< L
  Associativity,   ///< S
  Tiling,          ///< B
  Replacement,     ///< index into DesignSpaceOptions::replacements
  WritePolicy,     ///< index into DesignSpaceOptions::writePolicies
  Layout,          ///< 0 = tight, 1 = Section-4.1 assignment (when swept)
  L2,              ///< 0 = no L2, k = l2CapacityBytes[k - 1]
};

/// What the joint space spans. The geometry bounds reuse ExploreRanges;
/// the policy/layout/hierarchy dimensions are explicit value lists (a
/// singleton list pins the dimension).
struct DesignSpaceOptions {
  ExploreRanges ranges;
  std::vector<ReplacementPolicy> replacements{ReplacementPolicy::LRU};
  std::vector<WritePolicy> writePolicies{WritePolicy::WriteBack};
  /// Sweep the layout choice {tight, Section-4.1 assignment} as a gene.
  /// When false the Layout dimension is the singleton
  /// {defaultOptimizeLayout}.
  bool sweepLayout = false;
  bool defaultOptimizeLayout = true;
  /// Candidate L2 capacities (bytes, powers of two). The L2 dimension
  /// is always {none} plus these; empty = single-level space.
  std::vector<std::uint32_t> l2CapacityBytes{};

  void validate() const;
};

/// The joint space the CLI's --joint and the server's "joint":true
/// search: every replacement and write policy, both layout choices, and
/// an optional L2 at 4x the largest L1 capacity of `ranges`.
[[nodiscard]] DesignSpaceOptions jointSpace(const ExploreRanges& ranges);

/// One decoded genome: everything an evaluation needs.
struct JointPoint {
  ConfigKey key;  ///< (T, L, S, B)
  ReplacementPolicy replacement = ReplacementPolicy::LRU;
  WritePolicy writePolicy = WritePolicy::WriteBack;
  bool optimizeLayout = true;
  /// Derived inclusive companion (line = 2 * L1 line, 2-way when it
  /// fits) when the L2 gene is nonzero.
  std::optional<CacheConfig> l2;

  /// "C64L8S2B4|LRU|write-back|opt|L2:C1024L16S2" style.
  [[nodiscard]] std::string label() const;
};

/// Enumerable, repairable encoding of the joint space.
class DesignSpace {
public:
  explicit DesignSpace(DesignSpaceOptions options);

  [[nodiscard]] const DesignSpaceOptions& options() const noexcept {
    return options_;
  }

  /// Number of values along `gene` (>= 1).
  [[nodiscard]] std::size_t dimSize(Gene gene) const;

  /// Number of *valid* genomes (counted analytically, not enumerated).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// True iff every index is in range and repair() would be a no-op.
  [[nodiscard]] bool isValid(const Genome& g) const;

  /// Deterministic, idempotent projection onto the valid set: indices
  /// clamp to their dimension, dependent genes (L, S, B, L2) clamp to
  /// the largest value their prefix admits (an L2 smaller than 2xT
  /// falls back to "none").
  [[nodiscard]] Genome repair(Genome g) const;

  /// Decode a valid genome (checked) into its configuration.
  [[nodiscard]] JointPoint decode(const Genome& g) const;

  /// Canonical 64-bit key: gene 0 in the top byte, so packed order is
  /// lexicographic genome order. Injective over valid genomes; used as
  /// the fitness-cache key.
  [[nodiscard]] std::uint64_t packed(const Genome& g) const noexcept;

  /// Every valid genome in lexicographic (= packed) order.
  [[nodiscard]] std::vector<Genome> enumerate() const;

  /// A uniformly drawn index tuple, repaired. Deterministic given the
  /// engine state (consumes exactly kGeneCount draws).
  [[nodiscard]] Genome randomGenome(std::mt19937_64& rng) const;

  // Value-list accessors (for tests and reporting).
  [[nodiscard]] const std::vector<std::uint32_t>& cacheSizes() const noexcept {
    return cacheBytes_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& lineSizes() const noexcept {
    return lineBytes_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& associativities()
      const noexcept {
    return assoc_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& tilings() const noexcept {
    return tiling_;
  }
  /// L2 choice list: element 0 is always 0 (= no L2).
  [[nodiscard]] const std::vector<std::uint32_t>& l2Choices() const noexcept {
    return l2Bytes_;
  }

private:
  [[nodiscard]] std::uint8_t gene(const Genome& g, Gene which) const noexcept {
    return g[static_cast<std::size_t>(which)];
  }

  DesignSpaceOptions options_;
  std::vector<std::uint32_t> cacheBytes_;
  std::vector<std::uint32_t> lineBytes_;
  std::vector<std::uint32_t> assoc_;
  std::vector<std::uint32_t> tiling_;
  std::vector<std::uint8_t> layout_;  ///< 0 = tight, 1 = optimized
  std::vector<std::uint32_t> l2Bytes_;  ///< [0, options.l2CapacityBytes...]
  std::uint64_t size_ = 0;
};

}  // namespace memx::search
