// Kernels: arrays + a loop nest + an ordered list of array accesses.
//
// This is the program representation everything else consumes: trace
// generation executes it, Section-3 analysis partitions its references,
// the layout module places its arrays, tiling rewrites its nest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memx/loopir/affine.hpp"
#include "memx/loopir/loop_nest.hpp"
#include "memx/trace/memref.hpp"

namespace memx {

/// A (multi-dimensional) array operand.
struct ArrayDecl {
  std::string name;
  std::vector<std::int64_t> extents;  ///< per-dimension sizes, outer first
  std::uint32_t elemBytes = 4;

  /// Total number of elements.
  [[nodiscard]] std::uint64_t elemCount() const noexcept;
  /// Total size in bytes with tight row-major packing.
  [[nodiscard]] std::uint64_t sizeBytes() const noexcept {
    return elemCount() * elemBytes;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return extents.size(); }
};

/// One array reference in the kernel body: array[ H*iv + c ], executed once
/// per iteration. `indirectSeed` marks data-dependent (incompatible)
/// accesses like VLD's `table[b[i]]`: the subscripts are ignored and a
/// deterministic pseudo-random element of the array is touched instead.
struct ArrayAccess {
  std::size_t arrayIndex = 0;
  std::vector<AffineExpr> subscripts;  ///< one per array dimension
  AccessType type = AccessType::Read;
  std::optional<std::uint64_t> indirectSeed;

  /// True for affine (analyzable, "compatible"-capable) references.
  [[nodiscard]] bool isAffine() const noexcept {
    return !indirectSeed.has_value();
  }
};

/// A named loop kernel.
struct Kernel {
  std::string name;
  std::vector<ArrayDecl> arrays;
  LoopNest nest;
  std::vector<ArrayAccess> body;  ///< accesses per iteration, program order

  /// Checks structural consistency: array indices in range, subscript
  /// counts match array ranks. Throws memx::ContractViolation.
  void validate() const;

  /// Total references the kernel emits = iterations * body size.
  [[nodiscard]] std::uint64_t referenceCount() const;

  /// Index of an array by name; throws when absent.
  [[nodiscard]] std::size_t arrayIndexOf(const std::string& name) const;
};

/// Canonical text of everything that determines the kernel's reference
/// stream: element sizes and extents of the arrays, loop bounds and
/// steps, and the body accesses in order. Names are left out, so two
/// kernels that differ only in names share an identity, and two that
/// share a name but differ in structure do not. Memo keys use this.
[[nodiscard]] std::string structuralIdentity(const Kernel& kernel);

/// Builder-style helpers for the common access shapes.
/// a2(arr, e0, e1) -> ArrayAccess with two subscripts.
[[nodiscard]] ArrayAccess makeAccess(std::size_t arrayIndex,
                                     std::vector<AffineExpr> subscripts,
                                     AccessType type = AccessType::Read);

}  // namespace memx
