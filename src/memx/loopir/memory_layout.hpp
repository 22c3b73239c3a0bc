// Off-chip memory layouts: where each array lives and how its dimensions
// are strided.
//
// The paper's Section-4.1 optimization is entirely expressed here: a layout
// with padded bases (Example 2: b at 38, c at 76) and/or padded row pitch
// (Compress: pitch 36 instead of 32 bytes) eliminates conflict misses.
// The placement *algorithms* live in memx/layout; this type is just the
// addressing function trace generation uses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "memx/loopir/kernel.hpp"

namespace memx {

/// Placement of one array: base byte address plus a byte pitch per
/// dimension (outermost first; innermost is normally elemBytes).
struct ArrayPlacement {
  std::uint64_t baseAddr = 0;
  std::vector<std::uint64_t> pitches;

  /// Byte address of the element at `subscripts`.
  [[nodiscard]] std::uint64_t address(
      std::span<const std::int64_t> subscripts) const;

  /// Bytes from base to one past the last element of an array with the
  /// given extents.
  [[nodiscard]] std::uint64_t spanBytes(
      const ArrayDecl& decl) const;

  bool operator==(const ArrayPlacement&) const = default;
};

/// A complete layout for a kernel's arrays.
class MemoryLayout {
public:
  MemoryLayout() = default;
  explicit MemoryLayout(std::vector<ArrayPlacement> placements)
      : placements_(std::move(placements)) {}

  /// Tight row-major placement: arrays back to back starting at
  /// `startAddr`, no padding anywhere. This is the paper's "unoptimized"
  /// baseline layout.
  static MemoryLayout tight(const Kernel& kernel,
                            std::uint64_t startAddr = 0);

  [[nodiscard]] std::size_t arrayCount() const noexcept {
    return placements_.size();
  }
  [[nodiscard]] const ArrayPlacement& placement(std::size_t arrayIdx) const;
  [[nodiscard]] ArrayPlacement& placement(std::size_t arrayIdx);

  /// Byte address of kernel array `arrayIdx` at `subscripts`.
  [[nodiscard]] std::uint64_t address(
      std::size_t arrayIdx, std::span<const std::int64_t> subscripts) const;

  /// One past the highest byte any array occupies (padding included).
  [[nodiscard]] std::uint64_t endAddr(const Kernel& kernel) const;

  /// Canonical text form of the placement (bases and pitches). Two
  /// layouts with equal signatures address every element identically, so
  /// they generate identical traces — the sweep engine keys its trace
  /// cache on this.
  [[nodiscard]] std::string signature() const;

private:
  std::vector<ArrayPlacement> placements_;
};

/// Row-major pitches for a declaration (innermost = elemBytes), with the
/// second-innermost ("row") pitch optionally overridden to `rowPitchBytes`
/// for intra-array padding. rowPitchBytes = 0 means tight.
[[nodiscard]] std::vector<std::uint64_t> rowMajorPitches(
    const ArrayDecl& decl, std::uint64_t rowPitchBytes = 0);

}  // namespace memx
