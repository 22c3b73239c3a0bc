#include "memx/loopir/trace_gen.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"

namespace memx {

namespace {

/// SplitMix64: deterministic hash for indirect-access subscripts.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t indirectElem(const ArrayAccess& acc, const ArrayDecl& decl,
                           std::span<const std::int64_t> iv) {
  std::uint64_t h = *acc.indirectSeed;
  for (const std::int64_t i : iv) {
    h = mix64(h ^ static_cast<std::uint64_t>(i));
  }
  return h % decl.elemCount();
}

/// Resolve the element an access touches at iteration `iv` into `subs`
/// (affine evaluation with range checks, or indirect decomposition).
void resolveSubscripts(const Kernel& kernel, const ArrayAccess& acc,
                       const ArrayDecl& decl,
                       std::span<const std::int64_t> iv,
                       std::vector<std::int64_t>& subs) {
  if (acc.isAffine()) {
    subs.clear();
    for (std::size_t d = 0; d < acc.subscripts.size(); ++d) {
      const std::int64_t s = acc.subscripts[d].eval(iv);
      MEMX_EXPECTS(s >= 0 && s < decl.extents[d],
                   "subscript out of bounds in kernel " + kernel.name +
                       " array " + decl.name);
      subs.push_back(s);
    }
  } else {
    // Data-dependent access: a deterministic pseudo-random element.
    const std::uint64_t elem = indirectElem(acc, decl, iv);
    subs.assign(decl.rank(), 0);
    std::uint64_t rest = elem;
    for (std::size_t d = decl.rank(); d-- > 0;) {
      const auto extent = static_cast<std::uint64_t>(decl.extents[d]);
      subs[d] = static_cast<std::int64_t>(rest % extent);
      rest /= extent;
    }
  }
}

}  // namespace

AccessPattern generateAccessPattern(const Kernel& kernel,
                                    std::size_t maxRefs) {
  kernel.validate();
  AccessPattern pattern;
  pattern.ranks.reserve(kernel.arrays.size());
  pattern.elemBytes.reserve(kernel.arrays.size());
  for (const ArrayDecl& decl : kernel.arrays) {
    pattern.ranks.push_back(static_cast<std::uint32_t>(decl.rank()));
    pattern.elemBytes.push_back(decl.elemBytes);
  }
  pattern.refs.reserve(
      std::min<std::uint64_t>(kernel.referenceCount(), maxRefs));
  std::vector<std::int64_t> subs;
  kernel.nest.forEachIterationWhile(
      [&](std::span<const std::int64_t> iv) -> bool {
        for (const ArrayAccess& acc : kernel.body) {
          if (pattern.refs.size() >= maxRefs) return false;
          const ArrayDecl& decl = kernel.arrays[acc.arrayIndex];
          resolveSubscripts(kernel, acc, decl, iv, subs);
          pattern.refs.push_back(AccessPattern::Ref{
              static_cast<std::uint32_t>(acc.arrayIndex), acc.type});
          pattern.coords.insert(pattern.coords.end(), subs.begin(),
                                subs.end());
        }
        return pattern.refs.size() < maxRefs;
      });
  return pattern;
}

Trace materializeTrace(const AccessPattern& pattern,
                       const MemoryLayout& layout) {
  MEMX_EXPECTS(layout.arrayCount() >= pattern.ranks.size(),
               "layout covers fewer arrays than the pattern references");
  std::vector<MemRef> refs;
  refs.reserve(pattern.refs.size());
  std::size_t coord = 0;
  for (const AccessPattern::Ref& ref : pattern.refs) {
    const std::uint32_t rank = pattern.ranks[ref.arrayIndex];
    const std::span<const std::int64_t> subs(pattern.coords.data() + coord,
                                             rank);
    coord += rank;
    refs.push_back(MemRef{layout.placement(ref.arrayIndex).address(subs),
                          pattern.elemBytes[ref.arrayIndex], ref.type});
  }
  return Trace(std::move(refs));
}

Trace generateTrace(const Kernel& kernel, const MemoryLayout& layout) {
  kernel.validate();
  Trace trace;
  std::vector<std::int64_t> subs;
  kernel.nest.forEachIteration([&](std::span<const std::int64_t> iv) {
    for (const ArrayAccess& acc : kernel.body) {
      const ArrayDecl& decl = kernel.arrays[acc.arrayIndex];
      resolveSubscripts(kernel, acc, decl, iv, subs);
      // Addressed through the placement so padding (if any) is
      // respected.
      trace.push(MemRef{layout.placement(acc.arrayIndex).address(subs),
                        decl.elemBytes, acc.type});
    }
  });
  return trace;
}

Trace generateTrace(const Kernel& kernel) {
  return generateTrace(kernel, MemoryLayout::tight(kernel));
}

}  // namespace memx
