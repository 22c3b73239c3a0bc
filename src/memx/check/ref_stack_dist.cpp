#include "memx/check/ref_stack_dist.hpp"

#include <algorithm>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

RefReuseProfile::RefReuseProfile(const Trace& trace,
                                 std::uint32_t lineBytes) {
  MEMX_EXPECTS(isPow2(lineBytes), "line size must be a power of two");

  // LRU stack, most recent first.
  std::vector<std::uint64_t> stack;
  auto touch = [&](std::uint64_t line) {
    ++accesses_;
    const auto it = std::find(stack.begin(), stack.end(), line);
    if (it == stack.end()) {
      ++cold_;
      stack.insert(stack.begin(), line);
      histogram_.resize(stack.size(), 0);
      return;
    }
    const auto distance = static_cast<std::uint64_t>(it - stack.begin());
    ++histogram_[distance];
    stack.erase(it);
    stack.insert(stack.begin(), line);
  };

  // Own span arithmetic (not lastByte()), so the oracle stays
  // independent of the engines; same precondition.
  for (const MemRef& ref : trace) {
    MEMX_EXPECTS(ref.size > 0, "access size must be positive");
    MEMX_EXPECTS(ref.addr <= ~std::uint64_t{0} - (ref.size - 1),
                 "access runs past the top of the 64-bit address space");
    const std::uint64_t first = ref.addr / lineBytes;
    const std::uint64_t last = (ref.addr + ref.size - 1) / lineBytes;
    for (std::uint64_t line = first;; ++line) {
      touch(line);
      if (line == last) break;
    }
  }
}

}  // namespace memx
