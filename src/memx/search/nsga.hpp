// Seed-deterministic NSGA-II over a DesignSpace.
//
// The classic loop — binary tournaments on (rank, crowding), uniform or
// arithmetic crossover, per-gene mutation, elitist environmental
// selection — with three twists that matter here:
//
//   * Every distinct genome the run evaluates lands in its `visited`
//     set, and the returned front is extracted over that set, not the
//     final population: the search can only gain from points it paid
//     for.
//   * Every offspring is a genome the run has not seen. A child already
//     in `visited` or in its generation's batch takes a few random
//     draws, then (on spaces small enough to enumerate) a uniform pick
//     among the unvisited genomes.
//     A generation that yields no fresh genome ends the run, so the
//     budget buys new points, and a budget-bound search ends when the
//     budget does rather than at its generation cap. On a fresh
//     evaluator only the seeded initial population can hit its fitness
//     cache.
//   * When the remaining evaluation budget covers every not-yet-visited
//     genome, the engine finishes exhaustively ("budget mop-up"). A
//     budget of at least the space size therefore guarantees the
//     *exact* Pareto front — which is what the differential oracle
//     tests exploit on small spaces.
//
// Determinism: one mt19937_64 seeded from SearchOptions::seed drives
// every stochastic choice in a fixed order, every order the result
// depends on is packed-genome order, and all evaluation goes through
// the bit-stable sweep machinery — same seed, same front, bit for bit,
// across runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memx/core/explorer.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/search/design_space.hpp"
#include "memx/search/dominance.hpp"
#include "memx/search/evaluator.hpp"

namespace memx {
namespace obs {
class Recorder;
}  // namespace obs
}  // namespace memx

namespace memx::search {

/// Knobs of one search run. Defaults suit spaces of 10^3..10^6 points.
struct SearchOptions {
  std::uint64_t seed = 1;
  std::uint32_t populationSize = 64;
  /// Generation cap. A run also stops when the budget is spent or no
  /// unvisited genome is left.
  std::uint32_t generations = 40;
  /// Competitors per tournament pick (>= 1; 2 = binary tournament).
  std::uint32_t tournamentSize = 2;
  double crossoverRate = 0.9;   ///< probability a pair recombines
  double mutationRate = 0.15;   ///< per-gene mutation probability
  /// Hard cap on the distinct genomes a run visits, and so on its fresh
  /// evaluations. 0 means populationSize * (generations + 1).
  std::uint64_t maxEvaluations = 0;
  /// Finish exhaustively when the remaining budget covers every
  /// unvisited genome; the resulting front is provably exact.
  bool finishExhaustively = true;
  /// Joint space to search. When unset, Explorer::searchPareto derives
  /// a single-level space from the explorer's own options (ranges,
  /// replacement, write policy, layout choice).
  std::optional<DesignSpaceOptions> space;

  void validate() const;
};

/// One evaluated design with its objectives.
struct SearchPoint {
  Genome genome{};
  JointPoint decoded;
  Objectives objectives{};  ///< {energy nJ, cycles, size RBE}
};

/// Outcome of a search run.
struct SearchResult {
  std::string workload;
  /// Non-dominated set over every evaluated genome, in packed-genome
  /// order (deterministic).
  std::vector<SearchPoint> front;
  std::uint64_t evaluations = 0;   ///< fresh evaluations spent
  std::uint64_t cacheHits = 0;     ///< fitness-cache hits along the way
  std::uint32_t generations = 0;   ///< generational loops executed
  std::uint64_t spaceSize = 0;     ///< valid genomes in the space
  /// True iff every valid genome was evaluated: the front is the exact
  /// Pareto front of the space, not an approximation.
  bool exact = false;
};

/// The search driver. Owns the space and evaluator for one run.
class NsgaSearch {
public:
  NsgaSearch(Kernel kernel, DesignSpace space, ExploreOptions base,
             SearchOptions options, obs::Recorder* recorder = nullptr);

  /// Run the configured search once. Repeated calls restart from the
  /// seed but keep the evaluator's warm fitness cache (same front, zero
  /// fresh evaluations the second time).
  [[nodiscard]] SearchResult run();

  [[nodiscard]] const DesignSpace& space() const noexcept { return space_; }
  [[nodiscard]] SearchEvaluator& evaluator() noexcept { return evaluator_; }

private:
  struct Individual {
    Genome genome{};
    /// DesignSpace::packed(genome), the deterministic last tie-break of
    /// both tournament and environmental selection.
    std::uint64_t key = 0;
    Objectives objectives{};
    std::uint32_t rank = 0;
    double crowding = 0.0;
  };

  [[nodiscard]] std::vector<Genome> initialPopulation(std::mt19937_64& rng);
  void rankPopulation(std::vector<Individual>& pop) const;
  [[nodiscard]] std::size_t tournament(const std::vector<Individual>& pop,
                                       std::mt19937_64& rng) const;
  [[nodiscard]] Genome crossover(const Genome& a, const Genome& b,
                                 std::mt19937_64& rng) const;
  [[nodiscard]] Genome mutate(Genome g, std::mt19937_64& rng) const;

  DesignSpace space_;
  SearchOptions options_;
  obs::Recorder* recorder_ = nullptr;
  SearchEvaluator evaluator_;
  std::string workload_;
};

}  // namespace memx::search
