// Executes a kernel symbolically and emits its data-reference trace.
//
// This is the bridge from the paper's program-level view (loop nests over
// arrays) to the simulator's view (a byte-address stream): every iteration
// of the nest emits the body's accesses in program order, addressed
// through a MemoryLayout.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "memx/loopir/kernel.hpp"
#include "memx/loopir/memory_layout.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// A layout-independent record of a kernel's reference stream: for every
/// reference, which array element it touches (resolved subscripts) and
/// how. Executing the nest — affine evaluation, bounds checks, indirect
/// resolution — is the expensive part of trace generation and depends
/// only on the (tiled) kernel, not on where arrays live; the sweep engine
/// records it once and materializes a byte-address trace per candidate
/// layout with a single multiply-add pass.
struct AccessPattern {
  /// One reference: which array, which direction. The element size comes
  /// from the array declaration, the subscripts from `coords`.
  struct Ref {
    std::uint32_t arrayIndex = 0;
    AccessType type = AccessType::Read;
  };

  std::vector<Ref> refs;
  /// Resolved subscripts of every reference, concatenated; each ref
  /// occupies rank(arrayIndex) entries in order.
  std::vector<std::int64_t> coords;
  /// Per kernel array: subscript count and element size (copied from the
  /// declarations so materialization needs no Kernel).
  std::vector<std::uint32_t> ranks;
  std::vector<std::uint32_t> elemBytes;

  [[nodiscard]] std::size_t size() const noexcept { return refs.size(); }
  [[nodiscard]] bool empty() const noexcept { return refs.empty(); }
  /// Approximate heap footprint in bytes (trace-cache accounting).
  [[nodiscard]] std::size_t footprintBytes() const noexcept {
    return refs.capacity() * sizeof(Ref) +
           coords.capacity() * sizeof(std::int64_t);
  }
};

/// Execute `kernel` symbolically and record the first `maxRefs`
/// references of its stream (all of them by default) without committing
/// to a layout. Performs the same range checks as generateTrace on the
/// references it records (a violation throws memx::ContractViolation).
[[nodiscard]] AccessPattern generateAccessPattern(
    const Kernel& kernel,
    std::size_t maxRefs = std::numeric_limits<std::size_t>::max());

/// Turn a recorded pattern into the byte-address trace it denotes under
/// `layout`. materializeTrace(generateAccessPattern(k), l) is
/// bit-identical to generateTrace(k, l).
[[nodiscard]] Trace materializeTrace(const AccessPattern& pattern,
                                     const MemoryLayout& layout);

/// Generate the full reference trace of `kernel` under `layout`.
/// Affine subscripts are range-checked against the array extents
/// (a violation throws); indirect accesses touch a deterministic
/// pseudo-random element.
[[nodiscard]] Trace generateTrace(const Kernel& kernel,
                                  const MemoryLayout& layout);

/// Generate the trace under the tight (unoptimized) layout.
[[nodiscard]] Trace generateTrace(const Kernel& kernel);

}  // namespace memx
