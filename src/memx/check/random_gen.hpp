// Seeded random-case generators for the verification harness.
//
// Everything here is a pure function of its seed, so any failure a
// harness reports reproduces from the printed seed alone. The kernel
// generator is the one historically embedded in random_kernel_test.cpp,
// promoted to the library so the differential and metamorphic suites
// draw from the same distribution.
#pragma once

#include <cstdint>

#include "memx/cachesim/cache_config.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// A random valid cache geometry: L in {4..32}, 1..16 sets, 1..8 ways
/// (sizeBytes = L * sets * ways, so the config always validates) with
/// the replacement/write/allocate policies cycling through all 16
/// combinations as `seed % 16` — 16 consecutive seeds cover every
/// policy combination.
[[nodiscard]] CacheConfig randomCacheConfig(std::uint64_t seed);

/// A random geometry restricted to the stack-distance domain: same
/// L/sets/ways distribution as randomCacheConfig (from an independent
/// rng stream), but always LRU replacement with write-allocate fills;
/// the write policy alternates write-back / write-through with
/// `seed % 2`. Feed these to StackDist-vs-simulator differentials.
[[nodiscard]] CacheConfig randomLruCacheConfig(std::uint64_t seed);

/// A random geometry restricted to the policy-grid domain: same
/// L/sets/ways distribution again (independent rng stream), FIFO for
/// even seeds and tree-PLRU for odd ones, always write-allocate, with
/// the write policy alternating on `(seed / 2) % 2` so four consecutive
/// seeds cover both policies under both write policies. Feed these to
/// PolicyGridProfile-vs-simulator differentials.
[[nodiscard]] CacheConfig randomGridCacheConfig(std::uint64_t seed);

/// The L2 companion of randomCacheConfig(seed): a valid inclusive outer
/// level (line >= L1 line, capacity >= L1 capacity) with its own
/// seed-derived associativity and policies.
[[nodiscard]] CacheConfig randomL2Config(const CacheConfig& l1,
                                         std::uint64_t seed);

/// A random mixed-locality reference stream: strided runs, loop
/// re-traversals, ping-pong conflict pairs and uniform noise over a
/// small address window (so modest caches see hits, misses, conflicts
/// and evictions), with read/write/instruction-fetch types and access
/// widths of 1..16 bytes, including widths that straddle line
/// boundaries. Length is in [minRefs, maxRefs].
[[nodiscard]] Trace randomCheckTrace(std::uint64_t seed,
                                     std::size_t minRefs = 200,
                                     std::size_t maxRefs = 2000);

/// A random 2-deep stencil kernel: 1-3 arrays, identity-ish accesses
/// with offsets in [-1, +1], exactly one write (to array 0 at (i, j)).
/// Constant loop bounds, so the Section-4.1 layout machinery applies.
[[nodiscard]] Kernel randomStencilKernel(std::uint64_t seed);

}  // namespace memx
