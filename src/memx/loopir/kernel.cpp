#include "memx/loopir/kernel.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"

namespace memx {

std::uint64_t ArrayDecl::elemCount() const noexcept {
  std::uint64_t n = 1;
  for (const std::int64_t e : extents) {
    n *= static_cast<std::uint64_t>(e);
  }
  return n;
}

void Kernel::validate() const {
  MEMX_EXPECTS(!name.empty(), "kernel needs a name");
  MEMX_EXPECTS(!arrays.empty(), "kernel needs at least one array");
  MEMX_EXPECTS(!body.empty(), "kernel needs at least one access");
  for (const ArrayDecl& a : arrays) {
    MEMX_EXPECTS(!a.extents.empty(), "array needs at least one dimension");
    MEMX_EXPECTS(a.elemBytes > 0, "array element size must be positive");
    for (const std::int64_t e : a.extents) {
      MEMX_EXPECTS(e > 0, "array extents must be positive");
    }
  }
  for (const ArrayAccess& acc : body) {
    MEMX_EXPECTS(acc.arrayIndex < arrays.size(),
                 "access references an undeclared array");
    MEMX_EXPECTS(acc.subscripts.size() ==
                     arrays[acc.arrayIndex].extents.size(),
                 "subscript count must match array rank");
  }
}

std::uint64_t Kernel::referenceCount() const {
  return nest.iterationCount() * body.size();
}

std::size_t Kernel::arrayIndexOf(const std::string& arrayName) const {
  const auto it = std::find_if(
      arrays.begin(), arrays.end(),
      [&](const ArrayDecl& a) { return a.name == arrayName; });
  MEMX_EXPECTS(it != arrays.end(), "unknown array: " + arrayName);
  return static_cast<std::size_t>(it - arrays.begin());
}

std::string structuralIdentity(const Kernel& kernel) {
  std::string id;
  const auto exprs = [&](const std::vector<AffineExpr>& list) {
    for (const AffineExpr& e : list) {
      id += e.toString();
      id += ',';
    }
  };
  for (const ArrayDecl& a : kernel.arrays) {
    id += 'A' + std::to_string(a.elemBytes);
    for (const std::int64_t e : a.extents) id += 'x' + std::to_string(e);
    id += ';';
  }
  for (const Loop& loop : kernel.nest.loops()) {
    id += 'L';
    exprs(loop.lower.exprs);
    id += ':';
    exprs(loop.upper.exprs);
    id += ':' + std::to_string(loop.step) + ';';
  }
  for (const ArrayAccess& acc : kernel.body) {
    id += 'R' + std::to_string(acc.arrayIndex) + ':' +
          std::to_string(static_cast<int>(acc.type)) + ':';
    exprs(acc.subscripts);
    if (acc.indirectSeed) id += '#' + std::to_string(*acc.indirectSeed);
    id += ';';
  }
  return id;
}

ArrayAccess makeAccess(std::size_t arrayIndex,
                       std::vector<AffineExpr> subscripts, AccessType type) {
  ArrayAccess acc;
  acc.arrayIndex = arrayIndex;
  acc.subscripts = std::move(subscripts);
  acc.type = type;
  return acc;
}

}  // namespace memx
