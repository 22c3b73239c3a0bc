#include "memx/core/config_bank.hpp"

#include "memx/obs/recorder.hpp"

namespace memx {

ConfigBank::ConfigBank(SweepBackend backend,
                       const std::vector<CacheConfig>& configs)
    : engine_(backend == SweepBackend::StackDist
                  ? decltype(engine_)(std::in_place_type<StackDistSim>,
                                      configs)
                  : decltype(engine_)(std::in_place_type<MultiCacheSim>,
                                      configs)) {}

void ConfigBank::run(const Trace& trace) {
  std::visit([&](auto& engine) { engine.run(trace); }, engine_);
  refs_ += trace.size();
}

void ConfigBank::run(TraceSource& source, std::size_t chunkRefs) {
  refs_ += std::visit(
      [&](auto& engine) { return engine.run(source, chunkRefs); }, engine_);
}

std::size_t ConfigBank::size() const noexcept {
  return std::visit([](const auto& engine) { return engine.size(); },
                    engine_);
}

const CacheStats& ConfigBank::stats(std::size_t i) const {
  return std::visit(
      [i](const auto& engine) -> const CacheStats& { return engine.stats(i); },
      engine_);
}

void ConfigBank::record(obs::Recorder* recorder) const {
  if (recorder == nullptr) return;
  recorder->counter("sweep.groups").add();
  recorder->counter("sweep.points").add(size());
  if (const auto* sim = std::get_if<MultiCacheSim>(&engine_)) {
    recorder->counter("sweep.groups_multisim").add();
    recorder->counter("sim.accesses").add(refs_ * sim->size());
    return;
  }
  const auto& analytic = std::get<StackDistSim>(engine_);
  recorder->counter("sweep.groups_stackdist").add();
  recorder->counter("stackdist.passes").add(analytic.passCount());
  // FIFO/PLRU groups run as single-pass grid simulations; count those
  // passes and the (sets, ways) cells they cover so reports show how
  // much of the run the grid engine carried.
  recorder->counter("stackdist.grid_passes").add(analytic.gridPassCount());
  recorder->counter("stackdist.grid_cells").add(analytic.gridCellCount());
  // References actually profiled (one pass per profile), versus the
  // refs * configs a simulating bank pays.
  recorder->counter("stackdist.accesses").add(refs_ * analytic.passCount());
  // Dirty evictions charged across the members (0 for write-through
  // runs, where lines never dirty): the write-back traffic the energy
  // model sees.
  std::uint64_t dirtyEvictions = 0;
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    dirtyEvictions += analytic.stats(i).writebacks;
  }
  recorder->counter("stackdist.dirty_evictions").add(dirtyEvictions);
}

}  // namespace memx
