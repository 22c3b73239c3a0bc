// Bound-constrained configuration selection (the paper's end goal):
// the minimum-energy configuration if time is the hard constraint, or the
// minimum-time configuration if energy is the hard constraint — plus the
// full energy-time Pareto frontier for unconstrained trade-off studies.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "memx/core/design_point.hpp"

namespace memx {

/// The point with minimal energy among those with cycles <= cycleBound
/// and energy <= energyBound (an absent bound does not constrain; none
/// = global energy minimum). Ties broken by fewer cycles, then smaller
/// cache. Returns nullopt when no point meets the bounds.
[[nodiscard]] std::optional<DesignPoint> minEnergyPoint(
    std::span<const DesignPoint> points,
    std::optional<double> cycleBound = std::nullopt,
    std::optional<double> energyBound = std::nullopt);

/// The point with minimal cycles among those with energy <= energyBound
/// (no bound = global cycle minimum). Ties broken by lower energy, then
/// smaller cache. Returns nullopt when no point meets the bound.
[[nodiscard]] std::optional<DesignPoint> minCyclePoint(
    std::span<const DesignPoint> points,
    std::optional<double> energyBound = std::nullopt);

/// Points not dominated in (cycles, energy): no other point is <= in both
/// and < in one. Sorted by ascending cycles.
[[nodiscard]] std::vector<DesignPoint> paretoFront(
    std::span<const DesignPoint> points);

/// Minimum energy-delay product (energy * cycles): the standard single
/// scalar when neither metric is a hard constraint. Ties broken by lower
/// energy, then smaller cache.
[[nodiscard]] std::optional<DesignPoint> minEdpPoint(
    std::span<const DesignPoint> points);

/// Minimum-energy point whose estimated silicon area (data + tags +
/// status + comparators, in RBE) does not exceed `maxAreaRbe` — the
/// paper's "cache size" metric made physical.
[[nodiscard]] std::optional<DesignPoint> minEnergyPointWithinArea(
    std::span<const DesignPoint> points, double maxAreaRbe);

}  // namespace memx
