#include "memx/cachesim/multi_sim.hpp"

#include <algorithm>

#include "memx/trace/chunk_stream.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

MultiCacheSim::MultiCacheSim(const std::vector<CacheConfig>& configs,
                             std::uint64_t rngSeed) {
  MEMX_EXPECTS(!configs.empty(), "multi-sim bank needs at least one config");
  sims_.reserve(configs.size());
  for (const CacheConfig& config : configs) {
    sims_.emplace_back(config, rngSeed);  // validates
    const std::uint32_t line = config.lineBytes;
    const auto it = std::find_if(
        groups_.begin(), groups_.end(),
        [line](const LineGroup& g) { return g.lineBytes == line; });
    if (it == groups_.end()) {
      groups_.push_back(LineGroup{line, log2Exact(line), {sims_.size() - 1}});
    } else {
      it->members.push_back(sims_.size() - 1);
    }
  }
}

void MultiCacheSim::run(const Trace& trace) {
  feed(trace.refs().data(), trace.size());
}

std::size_t MultiCacheSim::run(TraceSource& source, std::size_t chunkRefs) {
  return streamChunks(source, chunkRefs, 1,
                      [this](std::size_t, const MemRef* refs,
                             std::size_t count) { feed(refs, count); });
}

void MultiCacheSim::feed(const MemRef* refs, std::size_t count) {
  // Blocked schedule: decompose the block into line spans once per
  // distinct line size, then replay the spans member by member. The
  // members are independent, so this ordering is statistics-identical to
  // a per-reference interleaving (and to any split of the stream into
  // blocks), but each member's tag array stays cache-hot for the whole
  // block instead of the bank's combined footprint being touched on
  // every reference.
  std::vector<LineSpan> spans;
  spans.reserve(count);
  for (const LineGroup& group : groups_) {
    spans.clear();
    for (std::size_t r = 0; r < count; ++r) {
      const MemRef& ref = refs[r];
      MEMX_EXPECTS(ref.size > 0, "access size must be positive");
      spans.push_back(LineSpan{ref.addr >> group.lineShift,
                               (ref.addr + ref.size - 1) >> group.lineShift,
                               ref.type});
    }
    for (const std::size_t i : group.members) {
      sims_[i].replaySpans(spans.data(), spans.size());
    }
  }
}

void MultiCacheSim::reset() {
  for (CacheSim& sim : sims_) sim.reset();
}

std::vector<CacheStats> simulateTraceMulti(
    const std::vector<CacheConfig>& configs, const Trace& trace) {
  MultiCacheSim bank(configs);
  bank.run(trace);
  std::vector<CacheStats> stats;
  stats.reserve(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    stats.push_back(bank.stats(i));
  }
  return stats;
}

}  // namespace memx
