// Loop tiling (Section 4.2) and loop interchange.
//
// Tiling strip-mines the selected loops and hoists all tile loops to the
// front of the nest, producing the paper's Example 3(b) shape:
//
//   for ti = lo_i, hi_i, B        for i = lo_i, hi_i
//    for tj = lo_j, hi_j, B   <=   for j = lo_j, hi_j
//     for i = ti, min(ti+B-1, hi_i)    body
//      for j = tj, min(tj+B-1, hi_j)
//        body
//
// The transform is purely structural (we generate traces, not results), so
// no dependence legality checking is performed; the kernels it is applied
// to in this repository are all legally tileable.
#pragma once

#include <cstdint>
#include <vector>

#include "memx/loopir/kernel.hpp"

namespace memx {

/// Strip-mine each loop level in `levels` (indices into the original
/// nest, strictly increasing) with tile size `tileSize`, hoisting the tile
/// loops in front. Requires every loop bound in the kernel to be constant
/// (rectangular nest); throws otherwise. tileSize = 1 yields a nest that
/// traverses iterations in the original order.
[[nodiscard]] Kernel tileLoops(const Kernel& kernel,
                               const std::vector<std::size_t>& levels,
                               std::int64_t tileSize);

/// Tile the two outermost loops (the common case for the paper's 2-D
/// kernels); for deeper nests the remaining loops stay innermost.
[[nodiscard]] Kernel tile2D(const Kernel& kernel, std::int64_t tileSize);

/// Swap loop levels `a` and `b`. Requires constant bounds on all loops.
[[nodiscard]] Kernel interchange(const Kernel& kernel, std::size_t a,
                                 std::size_t b);

}  // namespace memx
