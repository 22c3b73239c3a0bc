// Differential oracle runner for the Pareto search engine.
//
// Each seeded case draws a random stencil kernel and a small joint
// design space (clamped to at most 512 valid genomes), runs NsgaSearch
// with a full-enumeration budget — which the budget mop-up turns into
// an exhaustive, provably exact search — and diffs its front against
// the brute-force non-dominated set computed over a fresh evaluator's
// enumeration of the same space. The fronts must match genome for
// genome with bit-identical objectives.
//
// On a mismatch the runner shrinks the design space through a fixed
// list of reduction transforms (drop L2, freeze layout, single policy,
// halve each geometry range) for as long as the failure persists, and
// reports a one-line repro (`MEMX_SEARCH_DIFF repro: seed=S
// shrink={...}`) that reconstructs the minimized case from the seed
// and transform list alone via replaySearchDiffCase().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memx/check/differential.hpp"
#include "memx/core/explorer.hpp"
#include "memx/loopir/kernel.hpp"
#include "memx/search/design_space.hpp"
#include "memx/search/dominance.hpp"

namespace memx::search {

/// Indices of the non-dominated points, ascending. Quadratic in
/// points.size(); this is the oracle the production extractor and the
/// search front are differentially checked against.
[[nodiscard]] std::vector<std::size_t> bruteForceFront(
    std::span<const Objectives> points);

/// Non-dominated sort by dominator counting (Deb et al.): rank[i] = 0
/// for the first front, 1 for the front once rank-0 points are removed,
/// and so on. O(M * n^2) time and a list per point; this is the oracle
/// nonDominatedRanks is differentially checked against.
[[nodiscard]] std::vector<std::uint32_t> bruteForceRanks(
    std::span<const Objectives> points);

/// One generated search-differential case: everything derives from the
/// seed plus the recorded shrink transforms.
struct SearchDiffCase {
  std::uint64_t seed = 0;
  Kernel kernel;
  DesignSpaceOptions space;
  ExploreOptions base;
  /// Reduction transforms applied after generation (in order). Empty
  /// for a freshly generated case; runSearchDifferentialCase fills it
  /// while minimizing a failure.
  std::vector<std::size_t> shrinkSteps;
};

/// Number of distinct shrink transforms (valid step ids are
/// 0 .. kSearchShrinkSteps - 1).
inline constexpr std::size_t kSearchShrinkSteps = 8;

/// Apply one reduction transform to `space` in place. Returns false
/// when the transform is a no-op (already minimal along that axis).
/// The transformed options always stay valid.
bool applySearchShrinkStep(DesignSpaceOptions& space, std::size_t step);

/// Generate the case for `seed`: kernel from randomStencilKernel and a
/// seed-derived joint space capped at 512 genomes.
[[nodiscard]] SearchDiffCase makeSearchDiffCase(std::uint64_t seed);

/// One-line reproduction header for `c`. Every failure message starts
/// with this line.
[[nodiscard]] std::string searchDiffRepro(const SearchDiffCase& c);

/// Run the exact search and diff it against the brute-force front.
[[nodiscard]] DiffResult checkSearchDiffCase(const SearchDiffCase& c);

/// Reconstruct the case for `seed`, replay the recorded shrink
/// transforms, and check it — the one-call reproduction entry point
/// printed in repro lines.
[[nodiscard]] DiffResult replaySearchDiffCase(
    std::uint64_t seed, const std::vector<std::size_t>& shrinkSteps);

/// Run the case for `seed`; on failure, greedily shrink the space for
/// as long as the failure persists and return the minimized repro.
[[nodiscard]] DiffResult runSearchDifferentialCase(std::uint64_t seed);

/// Run `count` cases for seeds firstSeed .. firstSeed + count - 1.
[[nodiscard]] DiffSummary runSearchDifferential(std::uint64_t firstSeed,
                                                std::size_t count);

}  // namespace memx::search
