#include "memx/xform/tiling.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"

namespace memx {

namespace {

bool boundIsConstant(const LoopBound& b) {
  return b.exprs.size() == 1 && b.exprs[0].isConstant();
}

void requireRectangular(const Kernel& kernel, const char* what) {
  for (const Loop& l : kernel.nest.loops()) {
    MEMX_EXPECTS(boundIsConstant(l.lower) && boundIsConstant(l.upper),
                 std::string(what) + " requires constant loop bounds");
  }
}

/// Shift every induction-variable index in `e` by `shift`.
AffineExpr shifted(const AffineExpr& e, std::size_t shift) {
  AffineExpr out;
  out.constant = e.constant;
  out.coeffs.assign(e.coeffs.size() + shift, 0);
  for (std::size_t k = 0; k < e.coeffs.size(); ++k) {
    out.coeffs[k + shift] = e.coeffs[k];
  }
  return out;
}

/// Swap induction variables a and b in `e`.
AffineExpr swapped(const AffineExpr& e, std::size_t a, std::size_t b) {
  AffineExpr out = e;
  const std::size_t need = std::max(a, b) + 1;
  if (out.coeffs.size() < need) out.coeffs.resize(need, 0);
  std::swap(out.coeffs[a], out.coeffs[b]);
  return out;
}

}  // namespace

Kernel tileLoops(const Kernel& kernel, const std::vector<std::size_t>& levels,
                 std::int64_t tileSize) {
  kernel.validate();
  MEMX_EXPECTS(tileSize >= 1, "tile size must be at least 1");
  MEMX_EXPECTS(std::is_sorted(levels.begin(), levels.end()) &&
                   std::adjacent_find(levels.begin(), levels.end()) ==
                       levels.end(),
               "tile levels must be strictly increasing");
  MEMX_EXPECTS(levels.empty() || levels.back() < kernel.nest.depth(),
               "tile level out of range");
  requireRectangular(kernel, "tiling");

  const std::size_t shift = levels.size();
  std::vector<Loop> loops;
  loops.reserve(kernel.nest.depth() + shift);

  // Tile loops, hoisted to the front in the order given.
  for (std::size_t t = 0; t < levels.size(); ++t) {
    const Loop& orig = kernel.nest.loop(levels[t]);
    Loop tileLoop;
    tileLoop.name = orig.name + "_t";
    tileLoop.lower = orig.lower;  // constant; no remap needed
    tileLoop.upper = orig.upper;
    tileLoop.step = tileSize * orig.step;
    loops.push_back(std::move(tileLoop));
  }

  // Original loops, with tiled levels clamped to their tile.
  for (std::size_t l = 0; l < kernel.nest.depth(); ++l) {
    const Loop& orig = kernel.nest.loop(l);
    Loop nl;
    nl.name = orig.name;
    nl.step = orig.step;
    const auto it = std::find(levels.begin(), levels.end(), l);
    if (it != levels.end()) {
      const std::size_t tileDim =
          static_cast<std::size_t>(it - levels.begin());
      nl.lower = LoopBound(AffineExpr::var(tileDim));
      // min(tile + (B-1)*step, original upper)
      AffineExpr tileEnd = AffineExpr::var(tileDim).plusConstant(
          (tileSize - 1) * orig.step);
      nl.upper = LoopBound{std::move(tileEnd), orig.upper.exprs[0]};
    } else {
      nl.lower = orig.lower;
      nl.upper = orig.upper;
    }
    loops.push_back(std::move(nl));
  }

  Kernel out;
  out.name = kernel.name + "_tiled" + std::to_string(tileSize);
  out.arrays = kernel.arrays;
  out.nest = LoopNest(std::move(loops));
  out.body = kernel.body;
  for (ArrayAccess& acc : out.body) {
    for (AffineExpr& e : acc.subscripts) e = shifted(e, shift);
  }
  out.validate();
  return out;
}

Kernel tile2D(const Kernel& kernel, std::int64_t tileSize) {
  MEMX_EXPECTS(kernel.nest.depth() >= 2,
               "tile2D needs a nest of depth at least 2");
  return tileLoops(kernel, {0, 1}, tileSize);
}

Kernel interchange(const Kernel& kernel, std::size_t a, std::size_t b) {
  kernel.validate();
  MEMX_EXPECTS(a < kernel.nest.depth() && b < kernel.nest.depth(),
               "interchange level out of range");
  requireRectangular(kernel, "interchange");

  std::vector<Loop> loops = kernel.nest.loops();
  std::swap(loops[a], loops[b]);

  Kernel out;
  out.name = kernel.name + "_ichg";
  out.arrays = kernel.arrays;
  out.nest = LoopNest(std::move(loops));
  out.body = kernel.body;
  for (ArrayAccess& acc : out.body) {
    for (AffineExpr& e : acc.subscripts) e = swapped(e, a, b);
  }
  out.validate();
  return out;
}

}  // namespace memx
