#include "memx/mpeg/composite.hpp"

#include <algorithm>

#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/util/assert.hpp"

namespace memx {

void CompositeProgram::add(Kernel kernel, std::uint64_t trips) {
  kernel.validate();
  MEMX_EXPECTS(trips >= 1, "trip count must be at least 1");
  kernels_.push_back(std::move(kernel));
  trips_.push_back(trips);
}

const Kernel& CompositeProgram::kernel(std::size_t i) const {
  MEMX_EXPECTS(i < kernels_.size(), "kernel index out of range");
  return kernels_[i];
}

std::uint64_t CompositeProgram::trips(std::size_t i) const {
  MEMX_EXPECTS(i < trips_.size(), "kernel index out of range");
  return trips_[i];
}

ExplorationResult combineResults(
    const std::string& name,
    const std::vector<ExplorationResult>& perKernel,
    const std::vector<std::uint64_t>& trips) {
  MEMX_EXPECTS(!perKernel.empty(), "nothing to combine");
  MEMX_EXPECTS(perKernel.size() == trips.size(),
               "one trip count per kernel result required");

  ExplorationResult out;
  out.workload = name;

  double totalTrips = 0.0;
  for (const std::uint64_t t : trips) {
    totalTrips += static_cast<double>(t);
  }

  // The first result's key sequence defines the combined grid; every
  // other result must list the same keys in the same order (same sweep
  // ranges), so the fold walks all of them by position.
  const std::vector<DesignPoint>& grid = perKernel.front().points;
  const auto keyAt = [](const std::vector<DesignPoint>& points,
                        std::size_t i) {
    return i < points.size() ? points[i].key.label() : "no point";
  };
  for (std::size_t j = 1; j < perKernel.size(); ++j) {
    const std::vector<DesignPoint>& points = perKernel[j].points;
    const std::size_t n = std::min(grid.size(), points.size());
    std::size_t i = 0;
    while (i < n && points[i].key == grid[i].key) ++i;
    MEMX_EXPECTS(i == grid.size() && i == points.size(),
                 "per-kernel result " + std::to_string(j) +
                     " leaves the first result's key sequence at position " +
                     std::to_string(i) + ": expected " + keyAt(grid, i) +
                     ", found " + keyAt(points, i));
  }
  out.points.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    DesignPoint combined;
    combined.key = grid[i].key;
    double weightedMiss = 0.0;
    for (std::size_t j = 0; j < perKernel.size(); ++j) {
      const DesignPoint& p = perKernel[j].points[i];
      const double w = static_cast<double>(trips[j]);
      weightedMiss += p.missRate * w;
      combined.cycles += p.cycles * w;
      combined.energyNj += p.energyNj * w;
      combined.accesses += p.accesses * trips[j];
    }
    combined.missRate = weightedMiss / totalTrips;
    out.points.push_back(combined);
  }
  return out;
}

CompositeProgram::Result CompositeProgram::explore(
    const Explorer& explorer) const {
  MEMX_EXPECTS(!kernels_.empty(), "composite program has no kernels");
  Result result;
  result.tripCounts = trips_;
  result.perKernel.reserve(kernels_.size());
  for (const Kernel& k : kernels_) {
    result.perKernel.push_back(explorer.explore(k));
  }
  result.combined = combineResults(name_, result.perKernel, trips_);
  return result;
}

CompositeProgram mpegDecoder() {
  CompositeProgram program("mpeg-decoder");
  std::vector<WeightedKernel> ks = mpegDecoderKernels();
  for (WeightedKernel& wk : ks) {
    program.add(std::move(wk.kernel), wk.trips);
  }
  return program;
}

}  // namespace memx
