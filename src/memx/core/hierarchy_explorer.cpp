#include "memx/core/hierarchy_explorer.hpp"

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/energy/energy_model.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"
#include "memx/util/bits.hpp"
#include "memx/util/pow2_range.hpp"

namespace memx {

std::string HierarchyPoint::label() const {
  return "L1:" + l1.label() + "+L2:" + l2.label();
}

void HierarchyRanges::validate() const {
  MEMX_EXPECTS(isPow2(minL1Bytes) && isPow2(maxL1Bytes) &&
                   isPow2(minL2Bytes) && isPow2(maxL2Bytes) &&
                   isPow2(l1LineBytes) && isPow2(l2LineBytes) &&
                   isPow2(l2Associativity),
               "hierarchy sweep bounds must be powers of two");
  MEMX_EXPECTS(minL1Bytes <= maxL1Bytes && minL2Bytes <= maxL2Bytes,
               "hierarchy ranges inverted");
  MEMX_EXPECTS(l1LineBytes <= l2LineBytes,
               "L2 lines must be at least L1 lines");
}

namespace {

/// The two-level fold: every access reads the L1 array, every L2 access
/// the L2 array, and every L2 miss pays the L2 line's I/O + main memory.
HierarchyPoint foldHierarchyPoint(const CacheConfig& l1, const CacheConfig& l2,
                                  const HierarchyStats& s,
                                  const EnergyParams& energy, double addBs) {
  const CacheEnergyModel l1Model(l1, energy, addBs);
  const CacheEnergyModel l2Model(l2, energy, addBs);
  return HierarchyPoint{
      l1, l2, s.l1.missRate(), s.globalMissRate(), hierarchyCycles(s),
      static_cast<double>(s.l1.accesses()) * l1Model.hitEnergyNj() +
          static_cast<double>(s.l2.accesses()) * l2Model.hitEnergyNj() +
          static_cast<double>(s.l2.misses()) *
              (l2Model.ioEnergyNj() + l2Model.mainEnergyNj())};
}

}  // namespace

std::vector<HierarchyPoint> evaluateHierarchy(
    const Trace& trace, const CacheConfig& l1,
    const std::vector<CacheConfig>& l2s, const EnergyParams& energy,
    double addBs, obs::Recorder* recorder) {
  const obs::ScopedSpan span(recorder, "hierarchy.evaluate");
  for (const CacheConfig& l2 : l2s) checkInclusion(l1, l2);
  const L1Filter filtered = filterL1(l1, trace);
  // Each L2 replays on the fewest sets that hold the stream, with the
  // same statistics; the fold below still prices the real L2.
  // Simulated, not analytic: see docs/MODELS.md §7 for the measurement.
  std::vector<CacheConfig> replayed;
  replayed.reserve(l2s.size());
  for (const CacheConfig& l2 : l2s) {
    replayed.push_back(spanSizedL2(l2, filtered.l2Stream));
  }
  ConfigBank bank(SweepBackend::MultiSim, replayed);
  bank.run(filtered.l2Stream);
  bank.record(recorder);
  if (recorder != nullptr) {
    std::uint64_t spanSized = 0;
    for (std::size_t i = 0; i < l2s.size(); ++i) {
      spanSized += replayed[i] != l2s[i] ? 1 : 0;
    }
    recorder->counter("hierarchy.l2_span_sized").add(spanSized);
  }
  std::vector<HierarchyPoint> points;
  for (std::size_t i = 0; i < l2s.size(); ++i) {
    points.push_back(foldHierarchyPoint(l1, l2s[i],
                                        {filtered.l1, bank.stats(i)},
                                        energy, addBs));
  }
  return points;
}

std::vector<HierarchyPoint> exploreHierarchy(const Trace& trace,
                                             const HierarchyRanges& ranges,
                                             const EnergyParams& energy,
                                             obs::Recorder* recorder) {
  const obs::ScopedSpan span(recorder, "exploreHierarchy");
  ranges.validate();
  // One trace walk for the bus activity; every point below reuses it.
  const double addBs = measureAddrActivity(trace);
  std::vector<HierarchyPoint> points;
  for (const std::uint64_t s1 :
       pow2Range(ranges.minL1Bytes, ranges.maxL1Bytes)) {
    std::vector<CacheConfig> l2s;
    for (const std::uint64_t s2 :
         pow2Range(ranges.minL2Bytes, ranges.maxL2Bytes)) {
      if (s2 < s1) continue;
      l2s.push_back(CacheConfig{static_cast<std::uint32_t>(s2),
                                ranges.l2LineBytes, ranges.l2Associativity});
    }
    if (l2s.empty()) continue;
    const CacheConfig l1{static_cast<std::uint32_t>(s1), ranges.l1LineBytes};
    const std::vector<HierarchyPoint> row =
        evaluateHierarchy(trace, l1, l2s, energy, addBs, recorder);
    points.insert(points.end(), row.begin(), row.end());
  }
  if (recorder != nullptr) {
    recorder->counter("hierarchy.points").add(points.size());
    recorder->counter("hierarchy.accesses")
        .add(trace.size() * points.size());
  }
  return points;
}

}  // namespace memx
