#include "memx/spm/spm_explorer.hpp"

#include <sstream>

#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"

namespace memx {

namespace {

/// The kernel with every access to an SPM-resident array removed.
Kernel cacheSideKernel(const Kernel& kernel, const SpmAllocation& alloc) {
  Kernel filtered = kernel;
  filtered.name = kernel.name + "_cacheside";
  filtered.body.clear();
  for (const ArrayAccess& acc : kernel.body) {
    if (!alloc.contains(acc.arrayIndex)) filtered.body.push_back(acc);
  }
  return filtered;
}

}  // namespace

std::string SplitResult::label() const {
  std::ostringstream os;
  os << "SPM" << spmBytes << '+' << cache.label();
  return os.str();
}

SplitResult evaluateSplit(const Kernel& kernel, const ScratchpadConfig& spm,
                          const CacheConfig& cache,
                          const SpmSplitOptions& options) {
  kernel.validate();
  spm.validate();
  cache.validate();
  options.spmCost.validate();

  const std::vector<ArrayUsage> usages = profileArrayUsage(kernel);
  const SpmAllocation alloc = allocateOptimal(usages, spm.sizeBytes);

  SplitResult result;
  result.spmBytes = spm.sizeBytes;
  result.cache = cache;
  result.spmAccesses = alloc.capturedAccesses;
  result.totalAccesses = kernel.referenceCount();
  for (const std::size_t a : alloc.arrayIndices) {
    result.spmArrays.push_back(kernel.arrays[a].name);
  }

  const double spmEnergyPerAccess = options.spmCost.accessEnergyNj(spm);
  const double spmCycles =
      static_cast<double>(result.spmAccesses) * options.spmCost.accessCycles;
  const double spmEnergy =
      static_cast<double>(result.spmAccesses) * spmEnergyPerAccess;

  const Kernel filtered = cacheSideKernel(kernel, alloc);
  if (filtered.body.empty()) {
    result.cacheMissRate = 0.0;
    result.cycles = spmCycles;
    result.energyNj = spmEnergy;
    return result;
  }

  // The cache half is an untiled sweep point of the filtered kernel.
  const DesignPoint cachePoint =
      Explorer(options.base).evaluate(filtered, cache);
  result.cacheMissRate = cachePoint.missRate;
  result.cycles = spmCycles + cachePoint.cycles;
  result.energyNj = spmEnergy + cachePoint.energyNj;
  return result;
}

std::vector<SplitResult> exploreBudgetSplits(const Kernel& kernel,
                                             std::uint32_t budgetBytes,
                                             std::uint32_t lineBytes,
                                             const SpmSplitOptions& options) {
  MEMX_EXPECTS(isPow2(budgetBytes), "budget must be a power of two");
  MEMX_EXPECTS(budgetBytes >= 32, "budget must be at least 32 bytes");

  std::vector<SplitResult> results;

  // Cache-only baseline.
  CacheConfig fullCache;
  fullCache.sizeBytes = budgetBytes;
  fullCache.lineBytes = lineBytes;
  {
    ScratchpadConfig noSpm;
    noSpm.sizeBytes = 4;  // smallest valid; allocation captures nothing
    SplitResult r = evaluateSplit(kernel, noSpm, fullCache, options);
    r.spmBytes = 0;
    results.push_back(std::move(r));
  }

  // Mixed splits: for each power-of-two SPM size, give the cache the
  // largest power of two that still fits the remaining budget.
  for (std::uint32_t s = 4; s <= budgetBytes / 2; s <<= 1) {
    const std::uint32_t rest = budgetBytes - s;
    std::uint32_t cacheSize = 1u << log2Floor(rest);
    if (cacheSize < 2 * lineBytes) continue;
    ScratchpadConfig spm;
    spm.sizeBytes = s;
    CacheConfig cache;
    cache.sizeBytes = cacheSize;
    cache.lineBytes = lineBytes;
    results.push_back(evaluateSplit(kernel, spm, cache, options));
  }
  return results;
}

}  // namespace memx
