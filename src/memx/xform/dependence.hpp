// Data-dependence analysis for loop transforms.
//
// The tiling and interchange transforms in this library are purely
// structural (they reorder a traversal for trace generation); a compiler
// would have to prove them legal first. This module computes dependence
// distance vectors between uniformly generated references and derives
// the classic legality predicates:
//
//  * rectangular tiling of a loop band is legal iff the band is fully
//    permutable — every dependence distance component in the band is
//    known and non-negative (Wolf-Lam),
//  * interchange is legal iff every permuted distance vector stays
//    lexicographically non-negative.
//
// Solving H d = delta_c in general needs integer linear algebra; this
// implementation handles the common single-coefficient subscripts
// exactly and falls back to "unknown" (conservatively blocking the
// transform) otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memx/loopir/kernel.hpp"

namespace memx {

/// One component of a dependence distance vector.
struct DistanceComponent {
  /// Known distance in iterations, or nullopt for "unknown/any" (the
  /// direction-vector '*').
  std::optional<std::int64_t> value;

  [[nodiscard]] bool known() const noexcept { return value.has_value(); }
};

/// Kinds of data dependences.
enum class DepKind : std::uint8_t {
  Flow,    ///< write then read (true dependence)
  Anti,    ///< read then write
  Output,  ///< write then write
};

[[nodiscard]] std::string toString(DepKind k);

/// A dependence between two body accesses of one kernel.
struct Dependence {
  std::size_t srcAccess = 0;  ///< earlier access (body index)
  std::size_t dstAccess = 0;  ///< later access (body index)
  DepKind kind = DepKind::Flow;
  /// Distance per loop level (dst iteration minus src iteration).
  std::vector<DistanceComponent> distance;

  /// True when every component is known.
  [[nodiscard]] bool isDistanceVector() const noexcept;
  /// Lexicographic sign with unknowns treated pessimistically:
  /// returns false if the vector could be lexicographically negative.
  [[nodiscard]] bool lexNonNegative() const noexcept;
};

/// All loop-carried and loop-independent dependences of `kernel`
/// (pairs involving at least one write on the same array). Indirect
/// accesses yield all-unknown distances against every access of their
/// array.
[[nodiscard]] std::vector<Dependence> computeDependences(
    const Kernel& kernel);

/// Rectangular tiling of `levels` is legal (fully permutable band).
[[nodiscard]] bool tilingIsLegal(const Kernel& kernel,
                                 const std::vector<std::size_t>& levels);

/// tile2D legality shorthand (levels {0, 1}).
[[nodiscard]] bool tilingIsLegal(const Kernel& kernel);

/// Interchanging loops `a` and `b` keeps all dependences lexicographically
/// non-negative.
[[nodiscard]] bool interchangeIsLegal(const Kernel& kernel, std::size_t a,
                                      std::size_t b);

}  // namespace memx
