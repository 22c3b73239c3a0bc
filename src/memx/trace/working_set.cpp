#include "memx/trace/working_set.hpp"

#include <algorithm>

#include "memx/stackdist/ordered_stack.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

ReuseProfile::ReuseProfile(const Trace& trace, std::uint32_t lineBytes) {
  MEMX_EXPECTS(isPow2(lineBytes), "line size must be a power of two");

  OrderedStack stack;
  auto touch = [&](std::uint64_t line) {
    ++accesses_;
    const std::uint64_t distance = stack.touch(line);
    if (distance == kColdDistance) {
      ++cold_;
      // The histogram spans every distance a future re-access could
      // have, so its size is the number of distinct lines seen.
      histogram_.resize(stack.uniqueLines(), 0);
      return;
    }
    ++histogram_[distance];
  };

  for (const MemRef& ref : trace) {
    const std::uint64_t first = ref.addr / lineBytes;
    const std::uint64_t last = lastByte(ref) / lineBytes;
    for (std::uint64_t line = first;; ++line) {
      touch(line);
      if (line == last) break;
    }
  }
}

std::uint64_t ReuseProfile::countAtDistance(std::uint64_t d) const {
  return d < histogram_.size() ? histogram_[d] : 0;
}

double ReuseProfile::predictedMissRate(std::uint64_t lines) const {
  if (accesses_ == 0) return 0.0;
  std::uint64_t hits = 0;
  const std::uint64_t limit =
      std::min<std::uint64_t>(lines, histogram_.size());
  for (std::uint64_t d = 0; d < limit; ++d) hits += histogram_[d];
  return static_cast<double>(accesses_ - hits) /
         static_cast<double>(accesses_);
}

std::uint64_t ReuseProfile::linesForHitRate(double hitFraction) const {
  MEMX_EXPECTS(hitFraction >= 0.0 && hitFraction <= 1.0,
               "hit fraction must be in [0,1]");
  if (accesses_ == 0) return 0;
  const double needed = hitFraction * static_cast<double>(accesses_);
  std::uint64_t hits = 0;
  for (std::uint64_t d = 0; d < histogram_.size(); ++d) {
    hits += histogram_[d];
    if (static_cast<double>(hits) >= needed) return d + 1;
  }
  return uniqueLines();
}

}  // namespace memx
