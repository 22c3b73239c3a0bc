#include "memx/trace/trace_stats.hpp"

#include <unordered_set>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

TraceStats computeStats(const Trace& trace, std::uint32_t lineSize) {
  MEMX_EXPECTS(isPow2(lineSize), "line size must be a power of two");
  TraceStats s;
  s.lineSize = lineSize;
  s.total = trace.size();
  if (trace.empty()) return s;

  s.minAddr = trace[0].addr;
  s.maxAddr = trace[0].addr;
  std::unordered_set<std::uint64_t> addrs;
  std::unordered_set<std::uint64_t> lines;
  for (const MemRef& r : trace) {
    if (isReadLike(r.type)) {
      ++s.reads;
    } else {
      ++s.writes;
    }
    const std::uint64_t last = lastByte(r);
    s.minAddr = std::min(s.minAddr, r.addr);
    s.maxAddr = std::max(s.maxAddr, last);
    addrs.insert(r.addr);
    for (std::uint64_t line = r.addr / lineSize;; ++line) {
      lines.insert(line);
      if (line == last / lineSize) break;
    }
  }
  s.uniqueAddresses = addrs.size();
  s.uniqueLines = lines.size();
  return s;
}

std::map<std::int64_t, std::size_t> strideHistogram(const Trace& trace) {
  std::map<std::int64_t, std::size_t> hist;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const auto stride = static_cast<std::int64_t>(trace[i].addr) -
                        static_cast<std::int64_t>(trace[i - 1].addr);
    ++hist[stride];
  }
  return hist;
}

}  // namespace memx
