#include "memx/xform/dependence.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"

namespace memx {

namespace {

/// Distance solution between two accesses, or nullopt when they can
/// never touch the same element.
using MaybeDistance = std::optional<std::vector<DistanceComponent>>;

bool sameLinearPart(const ArrayAccess& a, const ArrayAccess& b) {
  if (a.subscripts.size() != b.subscripts.size()) return false;
  for (std::size_t r = 0; r < a.subscripts.size(); ++r) {
    const std::size_t n = std::max(a.subscripts[r].coeffs.size(),
                                   b.subscripts[r].coeffs.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (a.subscripts[r].coeff(k) != b.subscripts[r].coeff(k)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<DistanceComponent> allUnknown(std::size_t depth) {
  return std::vector<DistanceComponent>(depth);
}

/// Solve H d = cA - cB (d = iteration(B) - iteration(A) when B touches
/// the element A touched).
MaybeDistance solveDistance(const ArrayAccess& a, const ArrayAccess& b,
                            std::size_t depth) {
  if (!a.isAffine() || !b.isAffine()) return allUnknown(depth);
  if (!sameLinearPart(a, b)) return allUnknown(depth);

  std::vector<DistanceComponent> d(depth);
  std::vector<bool> pinned(depth, false);

  // Gauss-Seidel style substitution: re-scan the rows until no new loop
  // variable gets pinned. Handles skewed subscripts like a[i][j - i]
  // whose rows involve several loops.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < a.subscripts.size(); ++r) {
      const AffineExpr& ea = a.subscripts[r];
      const std::int64_t delta = ea.constant - b.subscripts[r].constant;

      std::int64_t residual = delta;
      std::vector<std::size_t> unknowns;
      for (std::size_t k = 0; k < depth; ++k) {
        const std::int64_t coeff = ea.coeff(k);
        if (coeff == 0) continue;
        if (pinned[k]) {
          residual -= coeff * *d[k].value;
        } else {
          unknowns.push_back(k);
        }
      }
      if (unknowns.empty()) {
        if (residual != 0) return std::nullopt;  // never the same element
        continue;
      }
      if (unknowns.size() == 1) {
        const std::size_t k = unknowns.front();
        const std::int64_t coeff = ea.coeff(k);
        if (residual % coeff != 0) return std::nullopt;
        d[k].value = residual / coeff;
        pinned[k] = true;
        changed = true;
      }
    }
  }
  return d;
}

/// Lexicographic class of a fully-known vector: -1, 0, +1.
int lexSign(const std::vector<DistanceComponent>& d) {
  for (const DistanceComponent& c : d) {
    if (!c.known()) return -2;  // caller must handle unknowns
    if (*c.value > 0) return 1;
    if (*c.value < 0) return -1;
  }
  return 0;
}

std::vector<DistanceComponent> negated(
    const std::vector<DistanceComponent>& d) {
  std::vector<DistanceComponent> out = d;
  for (DistanceComponent& c : out) {
    if (c.known()) c.value = -*c.value;
  }
  return out;
}

DepKind kindOf(bool srcWrites, bool dstWrites) {
  if (srcWrites && dstWrites) return DepKind::Output;
  return srcWrites ? DepKind::Flow : DepKind::Anti;
}

}  // namespace

std::string toString(DepKind k) {
  switch (k) {
    case DepKind::Flow:
      return "flow";
    case DepKind::Anti:
      return "anti";
    case DepKind::Output:
      return "output";
  }
  return "?";
}

bool Dependence::isDistanceVector() const noexcept {
  return std::all_of(distance.begin(), distance.end(),
                     [](const DistanceComponent& c) { return c.known(); });
}

bool Dependence::lexNonNegative() const noexcept {
  for (const DistanceComponent& c : distance) {
    if (!c.known()) return false;  // could be negative
    if (*c.value > 0) return true;
    if (*c.value < 0) return false;
  }
  return true;  // all zero
}

std::vector<Dependence> computeDependences(const Kernel& kernel) {
  kernel.validate();
  const std::size_t depth = kernel.nest.depth();
  std::vector<Dependence> deps;

  for (std::size_t i = 0; i < kernel.body.size(); ++i) {
    for (std::size_t j = i; j < kernel.body.size(); ++j) {
      const ArrayAccess& a = kernel.body[i];
      const ArrayAccess& b = kernel.body[j];
      if (a.arrayIndex != b.arrayIndex) continue;
      const bool aWrites = a.type == AccessType::Write;
      const bool bWrites = b.type == AccessType::Write;
      if (!aWrites && !bWrites) continue;
      if (i == j && !aWrites) continue;

      const MaybeDistance solved = solveDistance(a, b, depth);
      if (!solved) continue;  // provably independent

      const int sign = lexSign(*solved);
      Dependence dep;
      if (sign == 1 || (sign == 0 && i <= j)) {
        // B's iteration is later (or same iteration, body order a->b).
        dep.srcAccess = i;
        dep.dstAccess = j;
        dep.kind = kindOf(aWrites, bWrites);
        dep.distance = *solved;
      } else if (sign == -1 || sign == 0) {
        dep.srcAccess = j;
        dep.dstAccess = i;
        dep.kind = kindOf(bWrites, aWrites);
        dep.distance = negated(*solved);
      } else {
        // Unknown components: record conservatively in body order.
        dep.srcAccess = i;
        dep.dstAccess = j;
        dep.kind = kindOf(aWrites, bWrites);
        dep.distance = *solved;
      }
      if (i == j && dep.isDistanceVector() &&
          lexSign(dep.distance) == 0) {
        continue;  // an access does not depend on itself
      }
      deps.push_back(std::move(dep));
    }
  }
  return deps;
}

bool tilingIsLegal(const Kernel& kernel,
                   const std::vector<std::size_t>& levels) {
  for (const Dependence& dep : computeDependences(kernel)) {
    for (const std::size_t l : levels) {
      MEMX_EXPECTS(l < kernel.nest.depth(), "tile level out of range");
      if (l >= dep.distance.size()) continue;
      const DistanceComponent& c = dep.distance[l];
      if (!c.known() || *c.value < 0) return false;
    }
  }
  return true;
}

bool tilingIsLegal(const Kernel& kernel) {
  if (kernel.nest.depth() < 2) return false;
  return tilingIsLegal(kernel, {0, 1});
}

bool interchangeIsLegal(const Kernel& kernel, std::size_t a,
                        std::size_t b) {
  MEMX_EXPECTS(a < kernel.nest.depth() && b < kernel.nest.depth(),
               "interchange level out of range");
  for (Dependence dep : computeDependences(kernel)) {
    if (dep.distance.size() < kernel.nest.depth()) {
      dep.distance.resize(kernel.nest.depth());
    }
    std::swap(dep.distance[a], dep.distance[b]);
    if (!dep.lexNonNegative()) return false;
  }
  return true;
}

}  // namespace memx
