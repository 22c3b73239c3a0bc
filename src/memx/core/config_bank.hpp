// The configuration bank every sweep surface evaluates through: a set of
// cache configurations replayed against one reference stream, on the
// engine a SweepBackend names — a MultiCacheSim (simulates every
// member) or a StackDistSim (reads every member off shared profiles).
// Kernel groups, fixed traces and streamed trace files all feed a bank
// the same way, so no caller picks an engine and one place emits the
// engine counters.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "memx/cachesim/multi_sim.hpp"
#include "memx/core/explorer.hpp"
#include "memx/stackdist/stackdist_sim.hpp"

namespace memx {

class ConfigBank {
public:
  /// Build the engine `backend` names over `configs` (sweeps pass
  /// resolveBackend()'s answer). Throws on an empty bank, an invalid
  /// config, or a StackDist bank outside the analytic domain.
  ConfigBank(SweepBackend backend, const std::vector<CacheConfig>& configs);

  /// Replay an in-memory trace through every member, in place.
  void run(const Trace& trace);
  /// Drain `source` through every member in chunks of `chunkRefs`
  /// references. Both overloads may be called repeatedly: member state
  /// persists, which is how streamed trace sweeps split warmup from
  /// counted references.
  void run(TraceSource& source, std::size_t chunkRefs);

  [[nodiscard]] std::size_t size() const noexcept;
  /// Statistics of member `i` over everything run so far.
  [[nodiscard]] const CacheStats& stats(std::size_t i) const;

  /// Emit the sweep.* counters and the engine's workload counters
  /// (sim.accesses, or the stackdist.* family) for everything run so
  /// far. No-op without a recorder.
  void record(obs::Recorder* recorder) const;

private:
  std::variant<MultiCacheSim, StackDistSim> engine_;
  std::uint64_t refs_ = 0;  ///< references fed so far
};

}  // namespace memx
