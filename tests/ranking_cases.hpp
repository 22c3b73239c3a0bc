// Objective sets that stress non-dominated sorting: ties, duplicate
// rows, one wide front and one front per point. Shared by the tier-1
// ranking test (search_test.cpp) and the seeded ranking differential
// (search_differential_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "memx/search/dominance.hpp"

namespace memx::search {

enum class RankingShape {
  CoarseGrid,      ///< every value from a few levels: ties and copies
  CopiedRows,      ///< distinct random rows, a third copied over others
  AntiCorrelated,  ///< points on the plane x + y + z = 126: one front
  StrictChain,     ///< {i, i, i} shuffled: n fronts of one point each
  Layers,          ///< planes stacked along z: a few wide fronts
};

inline constexpr int kRankingShapes = 5;

/// `n` objective vectors of the given shape, deterministic in `seed`.
inline std::vector<Objectives> rankingCase(RankingShape shape, std::size_t n,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto level = [&](std::uint64_t levels) {
    return static_cast<double>(rng() % levels);
  };
  std::vector<Objectives> points(n);
  switch (shape) {
    case RankingShape::CoarseGrid: {
      const std::uint64_t levels = 2 + seed % 5;
      for (Objectives& p : points) {
        p = {level(levels), level(levels), level(levels)};
      }
      break;
    }
    case RankingShape::CopiedRows:
      for (Objectives& p : points) {
        p = {level(1000), level(1000), level(1000)};
      }
      for (std::size_t k = 0; k < n / 3; ++k) {
        points[rng() % n] = points[rng() % n];
      }
      break;
    case RankingShape::AntiCorrelated:
      for (Objectives& p : points) {
        const double x = level(64);
        const double y = level(64);
        p = {x, y, 126.0 - x - y};
      }
      break;
    case RankingShape::StrictChain:
      for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<double>(i);
        points[i] = {v, v, v};
      }
      std::shuffle(points.begin(), points.end(), rng);
      break;
    case RankingShape::Layers:
      for (Objectives& p : points) {
        const double x = level(32);
        const double y = level(32);
        p = {x, y, 62.0 - x - y + 100.0 * level(4)};
      }
      break;
  }
  return points;
}

}  // namespace memx::search
