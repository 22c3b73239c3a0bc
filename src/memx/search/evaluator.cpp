#include "memx/search/evaluator.hpp"

#include <utility>

#include "memx/core/hierarchy_explorer.hpp"
#include "memx/energy/area_model.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"

namespace memx::search {

namespace {

std::uint8_t geneOf(const Genome& g, Gene which) {
  return g[static_cast<std::size_t>(which)];
}

}  // namespace

SearchEvaluator::SearchEvaluator(Kernel kernel, const DesignSpace& space,
                                 ExploreOptions base,
                                 obs::Recorder* recorder)
    : kernel_(std::move(kernel)),
      space_(space),
      base_(std::move(base)),
      recorder_(recorder) {
  base_.ranges = space_.options().ranges;
  // L2 genes fold through the two-level fold, which has no write or
  // leakage term; accepting either option would put points from two
  // energy models on one front.
  if (!space_.options().l2CapacityBytes.empty()) {
    MEMX_EXPECTS(!base_.includeWriteEnergy,
                 "a search space with L2 capacities cannot use "
                 "includeWriteEnergy (no two-level write-energy model)");
    MEMX_EXPECTS(base_.energy.leakagePjPerBytePerCycle == 0.0,
                 "a search space with L2 capacities cannot use a nonzero "
                 "leakagePjPerBytePerCycle (no two-level leakage model)");
  }
}

SearchEvaluator::ComboState& SearchEvaluator::comboFor(const Genome& g) {
  const ComboKey key{geneOf(g, Gene::Replacement),
                     geneOf(g, Gene::WritePolicy), geneOf(g, Gene::Layout)};
  auto it = combos_.find(key);
  if (it != combos_.end()) return it->second;

  ExploreOptions options = base_;
  options.replacement = space_.options().replacements[key[0]];
  options.writePolicy = space_.options().writePolicies[key[1]];
  options.optimizeLayout = space_.decode(g).optimizeLayout;
  ComboState state;
  state.explorer = std::make_unique<Explorer>(std::move(options));
  state.explorer->setRecorder(recorder_);
  return combos_.emplace(key, std::move(state)).first->second;
}

Objectives SearchEvaluator::toObjectives(const DesignPoint& point,
                                         const JointPoint& decoded) const {
  double sizeRbe = estimateArea(point.cacheConfig()).totalRbe();
  if (decoded.l2) sizeRbe += estimateArea(*decoded.l2).totalRbe();
  return Objectives{point.energyNj, point.cycles, sizeRbe};
}

std::vector<Objectives> SearchEvaluator::evaluate(
    const std::vector<Genome>& genomes) {
  const obs::ScopedSpan span(recorder_, "search.evaluate_batch");
  std::vector<Objectives> results(genomes.size());

  struct Pending {
    std::size_t outIdx = 0;
    Genome genome{};
    JointPoint decoded;
  };
  std::map<ComboKey, std::vector<Pending>> work;
  // First occurrence of each fresh genome in this batch, so in-batch
  // duplicates are served from the batch instead of re-entering a plan.
  std::map<std::uint64_t, std::size_t> firstSeen;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;

  std::uint64_t hits = 0;
  std::uint64_t fresh = 0;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const Genome& g = genomes[i];
    MEMX_EXPECTS(space_.isValid(g),
                 "SearchEvaluator::evaluate requires valid genomes "
                 "(repair before evaluating)");
    const std::uint64_t packed = space_.packed(g);
    if (const auto hit = fitness_.find(packed); hit != fitness_.end()) {
      results[i] = hit->second;
      ++hits;
      continue;
    }
    const auto [seen, inserted] = firstSeen.try_emplace(packed, i);
    if (!inserted) {
      duplicates.emplace_back(i, seen->second);
      ++hits;
      continue;
    }
    const ComboKey key{geneOf(g, Gene::Replacement),
                       geneOf(g, Gene::WritePolicy),
                       geneOf(g, Gene::Layout)};
    work[key].push_back(Pending{i, g, space_.decode(g)});
    ++fresh;
  }

  for (auto& [comboKey, pending] : work) {
    ComboState& state = comboFor(pending.front().genome);
    std::vector<ConfigKey> keys;
    keys.reserve(pending.size());
    for (const Pending& p : pending) keys.push_back(p.decoded.key);
    const SweepPlan plan =
        state.explorer->planSweep(kernel_, std::move(keys));

    std::vector<DesignPoint> points(plan.keys.size());
    for (const SweepPlan::Group& group : plan.groups) {
      auto traceIt = state.traces.find(group.traceKey);
      if (traceIt == state.traces.end()) {
        Trace trace =
            state.explorer->buildGroupTrace(kernel_, group, state.patterns);
        const double activity = state.explorer->addrActivityFor(trace);
        traceIt = state.traces
                      .emplace(group.traceKey,
                               std::make_pair(std::move(trace), activity))
                      .first;
      }
      const Trace& trace = traceIt->second.first;
      const double activity = traceIt->second.second;

      // Two-level genes: one evaluateHierarchy per distinct L1 key.
      SweepPlan::Group singleLevel = group;
      singleLevel.keyIndices.clear();
      std::map<ConfigKey, std::vector<std::size_t>> twoLevel;
      for (const std::size_t idx : group.keyIndices) {
        if (pending[idx].decoded.l2) {
          twoLevel[plan.keys[idx]].push_back(idx);
        } else {
          singleLevel.keyIndices.push_back(idx);
        }
      }
      if (!singleLevel.keyIndices.empty()) {
        state.explorer->evaluateGroup(singleLevel, trace, activity,
                                      plan.keys, points);
      }
      for (const auto& [key, indices] : twoLevel) {
        std::vector<CacheConfig> l2s;
        for (const std::size_t idx : indices) {
          l2s.push_back(*pending[idx].decoded.l2);
        }
        const std::vector<HierarchyPoint> hps = evaluateHierarchy(
            trace, state.explorer->configFor(key), l2s, base_.energy,
            activity, recorder_);
        for (std::size_t j = 0; j < indices.size(); ++j) {
          points[indices[j]] =
              DesignPoint{key, trace.size(), hps[j].globalMissRate,
                          hps[j].cycles, hps[j].energyNj};
        }
      }
    }

    for (std::size_t j = 0; j < pending.size(); ++j) {
      const Pending& p = pending[j];
      results[p.outIdx] = toObjectives(points[j], p.decoded);
      fitness_.emplace(space_.packed(p.genome), results[p.outIdx]);
    }
  }

  for (const auto& [dupIdx, srcIdx] : duplicates) {
    results[dupIdx] = results[srcIdx];
  }

  evaluations_ += fresh;
  cacheHits_ += hits;
  if (recorder_ != nullptr) {
    if (fresh != 0) recorder_->counter("search.evals").add(fresh);
    if (hits != 0) recorder_->counter("search.cache_hits").add(hits);
  }
  return results;
}

}  // namespace memx::search
