// A single memory reference as seen by the data cache.
//
// The DAC'99 study is trace-driven in spirit: every metric (miss rate,
// cycles, energy) is a function of the reference stream a kernel emits.
// MemRef is the atom of that stream.
#pragma once

#include <cstdint>
#include <limits>

#include "memx/util/assert.hpp"

namespace memx {

/// Direction of a memory access. Instruction fetches behave like reads
/// everywhere in the simulators (they allocate and never dirty a line)
/// but keep their identity so din traces round-trip label 2.
enum class AccessType : std::uint8_t {
  Read,
  Write,
  Instr,
};

/// True for accesses that behave like loads (Read and Instr).
[[nodiscard]] constexpr bool isReadLike(AccessType type) noexcept {
  return type != AccessType::Write;
}

/// One data-memory reference: byte address, access width, direction.
/// A well-formed reference touches at least one byte and ends at or
/// below the top of the address space: addr + size - 1 <= 2^64 - 1.
/// lastByte() checks both.
struct MemRef {
  std::uint64_t addr = 0;   ///< byte address of the first byte touched
  std::uint32_t size = 4;   ///< access width in bytes (element size)
  AccessType type = AccessType::Read;

  [[nodiscard]] friend bool operator==(const MemRef&,
                                       const MemRef&) = default;
};

/// Address of the last byte `ref` touches, addr + size - 1: the one
/// statement of a reference's byte span, so every engine probes the
/// same lines. Throws ContractViolation when size is 0 or the span runs
/// past 2^64 - 1 (the sum would wrap, and a wrapped span probes no line
/// at all — a free hit).
[[nodiscard]] inline std::uint64_t lastByte(const MemRef& ref) {
  MEMX_EXPECTS(ref.size > 0, "access size must be positive");
  MEMX_EXPECTS(
      ref.addr <= std::numeric_limits<std::uint64_t>::max() - (ref.size - 1),
      "access runs past the top of the 64-bit address space");
  return ref.addr + (ref.size - 1);
}

/// Convenience factory for a read reference.
[[nodiscard]] constexpr MemRef readRef(std::uint64_t addr,
                                       std::uint32_t size = 4) noexcept {
  return MemRef{addr, size, AccessType::Read};
}

/// Convenience factory for a write reference.
[[nodiscard]] constexpr MemRef writeRef(std::uint64_t addr,
                                        std::uint32_t size = 4) noexcept {
  return MemRef{addr, size, AccessType::Write};
}

/// Convenience factory for an instruction-fetch reference.
[[nodiscard]] constexpr MemRef instrRef(std::uint64_t addr,
                                        std::uint32_t size = 4) noexcept {
  return MemRef{addr, size, AccessType::Instr};
}

}  // namespace memx
