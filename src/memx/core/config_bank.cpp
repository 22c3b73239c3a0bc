#include "memx/core/config_bank.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "memx/obs/recorder.hpp"
#include "memx/trace/chunk_stream.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

ConfigBank::ConfigBank(SweepBackend backend,
                       const std::vector<CacheConfig>& configs)
    : configs_(configs), stats_(configs.size()) {
  MEMX_EXPECTS(!configs_.empty(), "a config bank needs at least one config");
  const bool simulated = backend == SweepBackend::MultiSim;
  // A MultiSim group shares a line decomposition, so it keys on the line
  // size alone; a StackDist group shares a profile, which is per policy.
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const CacheConfig& config = configs_[i];
    config.validate();
    MEMX_EXPECTS(simulated || stackDistSupports(config),
                 "the StackDist engine handles LRU, FIFO and TreePLRU "
                 "configs only");
    const auto it = std::find_if(
        groups_.begin(), groups_.end(), [&](const Group& g) {
          const CacheConfig& first = configs_[g.members.front()];
          return first.lineBytes == config.lineBytes &&
                 (simulated || first.replacement == config.replacement);
        });
    if (it == groups_.end()) {
      groups_.push_back(Group{{i}, SimGroup{}});
    } else {
      it->members.push_back(i);
    }
  }

  for (Group& group : groups_) {
    const CacheConfig& first = configs_[group.members.front()];
    if (simulated) {
      auto& sim = std::get<SimGroup>(group.engine);
      sim.lineShift = log2Exact(first.lineBytes);
      sim.sims.reserve(group.members.size());
      // Seed 1, as a standalone simulateTrace, so Random members match it.
      for (const std::size_t i : group.members) {
        sim.sims.emplace_back(configs_[i], 1);
      }
      continue;
    }
    std::uint32_t maxSets = 1;
    std::uint32_t maxAssoc = 1;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
    for (const std::size_t i : group.members) {
      const CacheConfig& config = configs_[i];
      maxSets = std::max(maxSets, config.numSets());
      maxAssoc = std::max(maxAssoc, config.associativity);
      const std::pair<std::uint32_t, std::uint32_t> cell{
          config.numSets(), config.associativity};
      if (std::find(cells.begin(), cells.end(), cell) == cells.end()) {
        cells.push_back(cell);
      }
    }
    if (first.replacement == ReplacementPolicy::LRU) {
      group.engine.emplace<AllAssocProfile>(first.lineBytes, maxSets,
                                            maxAssoc);
      continue;
    }
    // FIFO/PLRU cells are independent, so the pass only needs the
    // geometries this bank actually queries — on a typical sweep that is
    // a thin diagonal of the full lattice, and skipping the rest is what
    // keeps the grid engine ahead of per-config simulation.
    group.engine
        .emplace<PolicyGridProfile>(first.replacement, first.lineBytes,
                                    maxSets, maxAssoc)
        .restrictCells(cells);
  }
}

void ConfigBank::run(const Trace& trace) {
  for (std::size_t lane = 0; lane < groups_.size(); ++lane) {
    feed(lane, trace.refs().data(), trace.size());
  }
  refs_ += trace.size();
  refreshStats();
}

void ConfigBank::run(TraceSource& source, std::size_t chunkRefs) {
  refs_ += streamChunks(
      source, chunkRefs, groups_.size(),
      [this](std::size_t lane, const MemRef* refs, std::size_t count) {
        feed(lane, refs, count);
      });
  refreshStats();
}

void ConfigBank::feed(std::size_t lane, const MemRef* refs,
                      std::size_t count) {
  std::visit([&](auto& engine) { engine.feed(refs, count); },
             groups_[lane].engine);
}

void ConfigBank::SimGroup::feed(const MemRef* refs, std::size_t count) {
  // Blocked schedule: decompose the block into line spans once, then
  // replay them member by member. Members are independent, so this is
  // statistics-identical to a per-reference interleaving (and to any
  // split of the stream into blocks).
  std::vector<LineSpan> spans;
  spans.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    const MemRef& ref = refs[r];
    spans.push_back(LineSpan{ref.addr >> lineShift,
                             lastByte(ref) >> lineShift, ref.type});
  }
  for (CacheSim& member : sims) {
    member.replaySpans(spans.data(), spans.size());
  }
}

void ConfigBank::refreshStats() {
  for (const Group& group : groups_) {
    for (std::size_t k = 0; k < group.members.size(); ++k) {
      const std::size_t i = group.members[k];
      const CacheConfig& config = configs_[i];
      stats_[i] = std::visit(
          [&](const auto& engine) {
            if constexpr (std::is_same_v<std::decay_t<decltype(engine)>,
                                         SimGroup>) {
              return engine.sims[k].stats();
            } else {
              return engine.stats(config.numSets(), config.associativity,
                                  config.writePolicy);
            }
          },
          group.engine);
    }
  }
}

void ConfigBank::record(obs::Recorder* recorder) const {
  if (recorder == nullptr) return;
  recorder->counter("sweep.groups").add();
  recorder->counter("sweep.points").add(size());
  if (std::holds_alternative<SimGroup>(groups_.front().engine)) {
    recorder->counter("sweep.groups_multisim").add();
    recorder->counter("sim.accesses").add(refs_ * size());
    return;
  }
  recorder->counter("sweep.groups_stackdist").add();
  recorder->counter("stackdist.passes").add(groups_.size());
  // FIFO/PLRU groups run as single-pass grid simulations; count those
  // passes and the (sets, ways) cells they cover so reports show how
  // much of the run the grid engine carried.
  std::uint64_t gridPasses = 0;
  std::uint64_t gridCells = 0;
  for (const Group& group : groups_) {
    if (const auto* grid = std::get_if<PolicyGridProfile>(&group.engine)) {
      ++gridPasses;
      gridCells += grid->cellCount();
    }
  }
  recorder->counter("stackdist.grid_passes").add(gridPasses);
  recorder->counter("stackdist.grid_cells").add(gridCells);
  // References actually profiled (one pass per profile), versus the
  // refs * configs a simulating bank pays.
  recorder->counter("stackdist.accesses").add(refs_ * groups_.size());
  // Dirty evictions charged across the members (0 for write-through
  // runs, where lines never dirty): the write-back traffic the energy
  // model sees.
  std::uint64_t dirtyEvictions = 0;
  for (const CacheStats& member : stats_) dirtyEvictions += member.writebacks;
  recorder->counter("stackdist.dirty_evictions").add(dirtyEvictions);
}

}  // namespace memx
