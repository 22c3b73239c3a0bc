// Pareto dominance over the search objectives, plus the machinery
// NSGA-II needs on top of it: front extraction and non-dominated
// sorting (presorted versions that must agree bit for bit with the
// quadratic brute-force oracles in check/search_diff.hpp), crowding
// distances, and an exact 3-D hypervolume for the bench gate.
//
// All objectives minimize. Dominance is strict: a dominates b iff a is
// <= b in every objective and < in at least one, so it is a strict
// partial order (irreflexive, antisymmetric, transitive) — properties
// the metamorphic suite fuzzes directly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace memx::search {

/// Minimized objective vector: {energy (nJ), cycles, size (RBE)}.
using Objectives = std::array<double, 3>;

/// True iff `a` dominates `b` (<= everywhere, < somewhere).
[[nodiscard]] bool dominates(const Objectives& a,
                             const Objectives& b) noexcept;

/// Indices of the non-dominated points, ascending: the same set as the
/// bruteForceFront oracle (check/search_diff.hpp), computed by
/// lexicographic presort: any dominator of a point precedes it in lex
/// order, so each point only checks against already-accepted front
/// members. O(n log n + n * front).
[[nodiscard]] std::vector<std::size_t> nonDominatedFront(
    std::span<const Objectives> points);

/// Non-dominated ranks: rank 0 for the first front, 1 for the front
/// once rank-0 points are removed, and so on — the same ranks as the
/// bruteForceRanks oracle (check/search_diff.hpp), computed by
/// efficient non-dominated sort with binary search (ENS-BS, Zhang et
/// al., IEEE TEVC 2015) over the lexicographic presort: a copy of its
/// lex predecessor takes the predecessor's rank; every other point
/// joins the first front none of whose members dominates it, found by
/// binary search over the fronts. O(n log n) to sort, then at most
/// ceil(log2(F + 1)) front scans per point for F fronts: O(M * n log n)
/// dominance work when fronts are small, O(M * n^2) only when one front
/// holds most points. Four flat buffers per call (sort order, ranks,
/// front heads, front links), none per point.
[[nodiscard]] std::vector<std::uint32_t> nonDominatedRanks(
    std::span<const Objectives> points);

/// NSGA-II crowding distances of the subpopulation `members` (indices
/// into `points`), in member order. Boundary points get +infinity.
/// Ties in an objective are ordered by index, so equal inputs always
/// produce bit-identical distances.
[[nodiscard]] std::vector<double> crowdingDistances(
    std::span<const Objectives> points,
    std::span<const std::size_t> members);

/// Exact hypervolume dominated by `points` relative to reference `ref`
/// (minimization: the measure of the union of boxes [p, ref]). Points
/// not strictly below `ref` in every objective contribute nothing.
/// Sweeps the third objective, maintaining a 2-D staircase.
[[nodiscard]] double hypervolume(std::span<const Objectives> points,
                                 const Objectives& ref);

}  // namespace memx::search
