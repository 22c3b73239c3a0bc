// Batched fitness evaluation for the search engine.
//
// Fresh genomes are grouped by their (replacement, write policy,
// layout) combo — the run-global knobs of an Explorer — and each
// combo's batch rides the existing planSweep / buildGroupTrace /
// evaluateGroup machinery, so every combo runs on the engine its
// policies resolve to (Random combos simulate, the rest are analytic)
// and every combo shares traces across
// generations through a per-combo trace cache. Two-level genomes reuse
// the shared group trace, one evaluateHierarchy (L1 filter, L2 bank)
// per distinct L1 key; its fold models neither write energy nor
// leakage, so a space with L2 capacities rejects both options.
//
// Objectives are cached by packed genome: a re-evaluated genome is one
// hash lookup, answered before its combo is touched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memx/core/explorer.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/search/design_space.hpp"
#include "memx/search/dominance.hpp"

namespace memx {
namespace obs {
class Recorder;
}  // namespace obs
}  // namespace memx

namespace memx::search {

/// Evaluates genomes of one DesignSpace against one kernel. The space
/// must outlive the evaluator. Not thread-safe (batch at will instead:
/// a batch is one sweep).
class SearchEvaluator {
public:
  /// `base` supplies everything the space does not sweep: energy and
  /// timing models, bus-activity measurement and write-energy
  /// accounting. Throws a
  /// ContractViolation when `space` has L2 capacities and `base` asks
  /// for write energy or a nonzero leakage coefficient.
  SearchEvaluator(Kernel kernel, const DesignSpace& space,
                  ExploreOptions base, obs::Recorder* recorder = nullptr);

  /// Objectives for each genome (all must be valid), in input order.
  /// Previously seen genomes are fitness-cache lookups; the rest are
  /// evaluated in per-combo batches.
  [[nodiscard]] std::vector<Objectives> evaluate(
      const std::vector<Genome>& genomes);

  /// Fresh (non-cached) evaluations performed so far.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  /// Fitness-cache hits served so far (includes duplicates within a
  /// batch).
  [[nodiscard]] std::uint64_t cacheHits() const noexcept {
    return cacheHits_;
  }

  [[nodiscard]] const DesignSpace& space() const noexcept { return space_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return kernel_; }

private:
  /// (replacement, write, layout) gene indices — one Explorer each.
  using ComboKey = std::array<std::uint8_t, 3>;

  struct ComboState {
    std::unique_ptr<Explorer> explorer;
    Explorer::PatternCache patterns;
    /// Shared group traces with their measured bus activity, keyed by
    /// SweepPlan::Group::traceKey; persists across generations.
    std::map<std::string, std::pair<Trace, double>> traces;
  };

  ComboState& comboFor(const Genome& g);
  [[nodiscard]] Objectives toObjectives(const DesignPoint& point,
                                        const JointPoint& decoded) const;

  Kernel kernel_;
  const DesignSpace& space_;
  ExploreOptions base_;
  obs::Recorder* recorder_ = nullptr;
  std::map<ComboKey, ComboState> combos_;
  /// Objectives of every genome evaluated so far, by packed genome.
  std::unordered_map<std::uint64_t, Objectives> fitness_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t cacheHits_ = 0;
};

}  // namespace memx::search
