#include "memx/stackdist/stackdist_sim.hpp"

#include <algorithm>

#include "memx/trace/chunk_stream.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

StackDistSim::StackDistSim(const std::vector<CacheConfig>& configs)
    : configs_(configs) {
  MEMX_EXPECTS(!configs_.empty(), "StackDistSim needs at least one config");
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const CacheConfig& config = configs_[i];
    config.validate();
    MEMX_EXPECTS(supports(config),
                 "StackDistSim handles LRU, FIFO and TreePLRU "
                 "write-allocate configs only");
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const LineGroup& g) {
                             return g.lineBytes == config.lineBytes &&
                                    g.policy == config.replacement;
                           });
    if (it == groups_.end()) {
      groups_.push_back(
          LineGroup{config.lineBytes, config.replacement, 1, 1, {}, {}});
      it = std::prev(groups_.end());
    }
    it->maxSets = std::max(it->maxSets, config.numSets());
    it->maxAssoc = std::max(it->maxAssoc, config.associativity);
    const auto geom = std::pair<std::uint32_t, std::uint32_t>{
        config.numSets(), config.associativity};
    if (std::find(it->cells.begin(), it->cells.end(), geom) ==
        it->cells.end()) {
      it->cells.push_back(geom);
    }
    it->members.push_back(i);
  }
  stats_.resize(configs_.size());
  profiles_.reserve(groups_.size());
  for (const LineGroup& group : groups_) {
    if (group.policy == ReplacementPolicy::LRU) {
      profiles_.emplace_back(std::in_place_type<AllAssocProfile>,
                             group.lineBytes, group.maxSets, group.maxAssoc);
      continue;
    }
    auto& grid = std::get<PolicyGridProfile>(profiles_.emplace_back(
        std::in_place_type<PolicyGridProfile>, group.policy, group.lineBytes,
        group.maxSets, group.maxAssoc));
    // FIFO/PLRU cells are independent, so the pass only needs the
    // geometries this bank actually queries — on a typical sweep that is
    // a thin diagonal of the full lattice, and skipping the rest is what
    // keeps the grid backend ahead of per-config simulation.
    grid.restrictCells(group.cells);
    ++gridPasses_;
    gridCells_ += group.cells.size();
  }
}

void StackDistSim::run(const Trace& trace) {
  for (std::size_t g = 0; g < profiles_.size(); ++g) {
    feedProfile(g, trace.refs().data(), trace.size());
  }
  refreshStats();
}

std::size_t StackDistSim::run(TraceSource& source, std::size_t chunkRefs) {
  // Profiles are independent: each is one lane of the streamed pass.
  const std::size_t fed = streamChunks(
      source, chunkRefs, profiles_.size(),
      [this](std::size_t g, const MemRef* refs, std::size_t count) {
        feedProfile(g, refs, count);
      });
  refreshStats();
  return fed;
}

void StackDistSim::feedProfile(std::size_t g, const MemRef* refs,
                               std::size_t count) {
  std::visit([&](auto& p) { p.feed(refs, count); }, profiles_[g]);
}

void StackDistSim::refreshStats() {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const std::size_t i : groups_[g].members) {
      const CacheConfig& config = configs_[i];
      stats_[i] = std::visit(
          [&](const auto& p) {
            return p.stats(config.numSets(), config.associativity,
                           config.writePolicy);
          },
          profiles_[g]);
    }
  }
}

const CacheStats& StackDistSim::stats(std::size_t i) const {
  return stats_[i];
}

std::vector<CacheStats> stackDistStats(
    const std::vector<CacheConfig>& configs, const Trace& trace) {
  StackDistSim bank(configs);
  bank.run(trace);
  std::vector<CacheStats> out;
  out.reserve(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) out.push_back(bank.stats(i));
  return out;
}

}  // namespace memx
