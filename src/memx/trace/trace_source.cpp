#include "memx/trace/trace_source.hpp"

#include <algorithm>
#include <vector>

namespace memx {

std::optional<MemRef> WindowedSource::next() { return nextFromFill(); }

std::size_t WindowedSource::fill(MemRef* out, std::size_t max) {
  if (!skipped_) {
    skipped_ = true;
    std::vector<MemRef> scratch(
        static_cast<std::size_t>(std::min<std::uint64_t>(window_.skip, 4096)));
    for (std::uint64_t left = window_.skip; left > 0;) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, scratch.size()));
      if (inner_->fill(scratch.data(), want) < want) return 0;
      left -= want;
    }
  }
  if (window_.limit != 0) {
    const std::uint64_t left = window_.warmup + window_.limit - delivered_;
    max = static_cast<std::size_t>(std::min<std::uint64_t>(max, left));
  }
  const std::size_t got = inner_->fill(out, max);
  delivered_ += got;
  return got;
}

}  // namespace memx
