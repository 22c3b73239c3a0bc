#include "memx/core/selection.hpp"

#include "memx/energy/area_model.hpp"
#include <algorithm>
#include <limits>

namespace memx {

namespace {

bool energyLess(const DesignPoint& a, const DesignPoint& b) {
  if (a.energyNj != b.energyNj) return a.energyNj < b.energyNj;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  return a.key < b.key;
}

bool cyclesLess(const DesignPoint& a, const DesignPoint& b) {
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.energyNj != b.energyNj) return a.energyNj < b.energyNj;
  return a.key < b.key;
}

}  // namespace

std::optional<DesignPoint> minEnergyPoint(
    std::span<const DesignPoint> points, std::optional<double> cycleBound,
    std::optional<double> energyBound) {
  std::optional<DesignPoint> best;
  for (const DesignPoint& p : points) {
    if (cycleBound && p.cycles > *cycleBound) continue;
    if (energyBound && p.energyNj > *energyBound) continue;
    if (!best || energyLess(p, *best)) best = p;
  }
  return best;
}

std::optional<DesignPoint> minCyclePoint(
    std::span<const DesignPoint> points, std::optional<double> energyBound) {
  std::optional<DesignPoint> best;
  for (const DesignPoint& p : points) {
    if (energyBound && p.energyNj > *energyBound) continue;
    if (!best || cyclesLess(p, *best)) best = p;
  }
  return best;
}

std::vector<DesignPoint> paretoFront(std::span<const DesignPoint> points) {
  std::vector<DesignPoint> sorted(points.begin(), points.end());
  std::sort(sorted.begin(), sorted.end(), cyclesLess);
  std::vector<DesignPoint> front;
  double bestEnergy = std::numeric_limits<double>::infinity();
  for (const DesignPoint& p : sorted) {
    if (p.energyNj < bestEnergy) {
      front.push_back(p);
      bestEnergy = p.energyNj;
    }
  }
  return front;
}

std::optional<DesignPoint> minEdpPoint(
    std::span<const DesignPoint> points) {
  std::optional<DesignPoint> best;
  double bestEdp = std::numeric_limits<double>::infinity();
  for (const DesignPoint& p : points) {
    const double edp = p.energyNj * p.cycles;
    if (!best || edp < bestEdp ||
        (edp == bestEdp && energyLess(p, *best))) {
      best = p;
      bestEdp = edp;
    }
  }
  return best;
}

std::optional<DesignPoint> minEnergyPointWithinArea(
    std::span<const DesignPoint> points, double maxAreaRbe) {
  std::optional<DesignPoint> best;
  for (const DesignPoint& p : points) {
    if (estimateArea(p.cacheConfig()).totalRbe() > maxAreaRbe) continue;
    if (!best || energyLess(p, *best)) best = p;
  }
  return best;
}

}  // namespace memx
