// Two-level (L1 + L2) exploration — the paper's MemExplore loop extended
// one memory level down.
//
// Energy: every access pays the L1 hit energy; L1 misses add the L2
// access energy; L2 misses add the I/O + main-memory energy of the L2's
// line. Cycles use the two-level latency model (hierarchyCycles). Both
// levels sweep in powers of two, inclusion constraints enforced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/core/explorer.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

namespace obs {
class Recorder;
}  // namespace obs

/// One evaluated (L1, L2) pair.
struct HierarchyPoint {
  CacheConfig l1;
  CacheConfig l2;
  double l1MissRate = 0.0;
  double globalMissRate = 0.0;  ///< off-chip accesses / processor accesses
  double cycles = 0.0;
  double energyNj = 0.0;

  [[nodiscard]] std::string label() const;
};

/// Sweep ranges of a two-level exploration.
struct HierarchyRanges {
  std::uint32_t minL1Bytes = 32;
  std::uint32_t maxL1Bytes = 256;
  std::uint32_t l1LineBytes = 8;
  std::uint32_t minL2Bytes = 256;
  std::uint32_t maxL2Bytes = 4096;
  std::uint32_t l2LineBytes = 16;
  std::uint32_t l2Associativity = 2;

  void validate() const;
};

/// Every two-level point: `l1` paired with each of `l2s` (in order) on
/// `trace`, whose bus activity is `addBs`. One filterL1 pass, one MultiSim
/// ConfigBank of the L2s over its stream, one fold per pair; `recorder`
/// gets one "hierarchy.evaluate" span and the bank's counters. Throws on
/// empty `l2s` or a non-inclusive pair.
[[nodiscard]] std::vector<HierarchyPoint> evaluateHierarchy(
    const Trace& trace, const CacheConfig& l1,
    const std::vector<CacheConfig>& l2s, const EnergyParams& energy,
    double addBs, obs::Recorder* recorder = nullptr);

/// Sweep every valid (L1, L2) pair (L2 >= L1) over `trace`, one
/// evaluateHierarchy per L1 size. `recorder` (optional) collects an
/// "exploreHierarchy" span and the hierarchy.* and bank counters;
/// results are identical with or without it.
[[nodiscard]] std::vector<HierarchyPoint> exploreHierarchy(
    const Trace& trace, const HierarchyRanges& ranges,
    const EnergyParams& energy = {}, obs::Recorder* recorder = nullptr);

}  // namespace memx
