#include "memx/check/search_diff.hpp"

#include <algorithm>
#include <random>
#include <utility>

#include "memx/check/random_gen.hpp"
#include "memx/util/numeric_io.hpp"
#include "memx/search/evaluator.hpp"
#include "memx/search/nsga.hpp"

namespace memx::search {

namespace {

/// Largest joint space a differential case may span. Small enough that
/// the exhaustive oracle is instant, large enough to exercise every
/// gene (policies, layout, L2) in one case.
constexpr std::uint64_t kMaxDiffSpace = 512;

std::string f64(double v) { return formatDouble17(v); }

}  // namespace

std::vector<std::size_t> bruteForceFront(std::span<const Objectives> points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && dominates(points[j], points[i]);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::uint32_t> bruteForceRanks(
    std::span<const Objectives> points) {
  const std::size_t n = points.size();
  std::vector<std::uint32_t> rank(n, 0);
  std::vector<std::uint32_t> dominatorCount(n, 0);
  std::vector<std::vector<std::uint32_t>> dominatedBy(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates(points[i], points[j])) {
        dominatedBy[i].push_back(static_cast<std::uint32_t>(j));
        ++dominatorCount[j];
      } else if (dominates(points[j], points[i])) {
        dominatedBy[j].push_back(static_cast<std::uint32_t>(i));
        ++dominatorCount[i];
      }
    }
  }
  std::vector<std::uint32_t> current;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dominatorCount[i] == 0) current.push_back(i);
  }
  std::uint32_t level = 0;
  while (!current.empty()) {
    std::vector<std::uint32_t> next;
    for (const std::uint32_t i : current) {
      rank[i] = level;
      for (const std::uint32_t j : dominatedBy[i]) {
        if (--dominatorCount[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
    ++level;
  }
  return rank;
}

bool applySearchShrinkStep(DesignSpaceOptions& space, std::size_t step) {
  switch (step) {
    case 0:
      if (space.l2CapacityBytes.empty()) return false;
      space.l2CapacityBytes.clear();
      return true;
    case 1:
      if (!space.sweepLayout) return false;
      space.sweepLayout = false;
      return true;
    case 2:
      if (space.replacements.size() <= 1) return false;
      space.replacements.resize(1);
      return true;
    case 3:
      if (space.writePolicies.size() <= 1) return false;
      space.writePolicies.resize(1);
      return true;
    case 4:
      if (space.ranges.maxCacheBytes / 2 < space.ranges.minCacheBytes) {
        return false;
      }
      space.ranges.maxCacheBytes /= 2;
      return true;
    case 5:
      if (space.ranges.maxLineBytes / 2 < space.ranges.minLineBytes) {
        return false;
      }
      space.ranges.maxLineBytes /= 2;
      return true;
    case 6:
      if (space.ranges.maxAssociativity <= 1) return false;
      space.ranges.maxAssociativity /= 2;
      return true;
    case 7:
      if (space.ranges.maxTiling <= 1) return false;
      space.ranges.maxTiling /= 2;
      return true;
    default:
      return false;
  }
}

SearchDiffCase makeSearchDiffCase(std::uint64_t seed) {
  SearchDiffCase c;
  c.seed = seed;
  c.kernel = randomStencilKernel(seed);

  std::mt19937_64 rng(seed ^ 0x5eacd1ff00dull);
  DesignSpaceOptions& s = c.space;
  s.ranges.minCacheBytes = 16;
  s.ranges.maxCacheBytes = 16u << (rng() % 4);
  s.ranges.onChipBytes = s.ranges.maxCacheBytes;
  s.ranges.minLineBytes = 4;
  s.ranges.maxLineBytes = 4u << (rng() % 3);
  s.ranges.maxAssociativity = 1u << (rng() % 3);
  s.ranges.maxTiling = 1u << (rng() % 3);

  constexpr ReplacementPolicy kRepls[] = {
      ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
      ReplacementPolicy::Random, ReplacementPolicy::TreePLRU};
  s.replacements = {kRepls[rng() % 4]};
  const ReplacementPolicy extra = kRepls[rng() % 4];
  if (rng() % 2 == 0 && extra != s.replacements[0]) {
    s.replacements.push_back(extra);
  }
  switch (rng() % 3) {
    case 0:
      s.writePolicies = {WritePolicy::WriteBack};
      break;
    case 1:
      s.writePolicies = {WritePolicy::WriteThrough};
      break;
    default:
      s.writePolicies = {WritePolicy::WriteBack, WritePolicy::WriteThrough};
      break;
  }
  s.sweepLayout = rng() % 2 == 0;
  s.defaultOptimizeLayout = rng() % 2 == 0;
  if (rng() % 3 == 0) {
    s.l2CapacityBytes = {s.ranges.maxCacheBytes * (rng() % 2 == 0 ? 2 : 4)};
  }

  // Cap the space: cycle the shrink transforms until it fits. These
  // generation-time reductions are part of the case, not recorded in
  // shrinkSteps — replaying from the seed retraces them identically.
  std::size_t step = 0;
  std::size_t idle = 0;
  while (DesignSpace(s).size() > kMaxDiffSpace &&
         idle < kSearchShrinkSteps) {
    idle = applySearchShrinkStep(s, step % kSearchShrinkSteps) ? 0
                                                              : idle + 1;
    ++step;
  }
  return c;
}

std::string searchDiffRepro(const SearchDiffCase& c) {
  std::string steps;
  for (const std::size_t s : c.shrinkSteps) {
    if (!steps.empty()) steps += ',';
    steps += std::to_string(s);
  }
  return "MEMX_SEARCH_DIFF repro: seed=" + std::to_string(c.seed) +
         " shrink={" + steps + "} space=" +
         std::to_string(DesignSpace(c.space).size()) +
         " | rerun: memx::search::replaySearchDiffCase(" +
         std::to_string(c.seed) + ", {" + steps + "})";
}

DiffResult checkSearchDiffCase(const SearchDiffCase& c) {
  DiffResult result;
  const auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = searchDiffRepro(c) + "\n  " + what;
    return result;
  };

  DesignSpace space(c.space);

  // The engine under test: full-enumeration budget, so the mop-up
  // guarantees every genome is visited and the front is exact.
  SearchOptions options;
  options.seed = c.seed;
  options.populationSize = 16;
  options.generations = 3;
  options.maxEvaluations = space.size();
  options.finishExhaustively = true;
  NsgaSearch engine(c.kernel, DesignSpace(c.space), c.base, options);
  const SearchResult got = engine.run();
  if (!got.exact) {
    return fail("search claims inexact coverage of a " +
                std::to_string(space.size()) +
                "-genome space despite a full-enumeration budget");
  }

  // The oracle: a fresh evaluator over the plain enumeration, fronted
  // by the O(n^2) brute-force extractor. enumerate() yields packed
  // order, matching the search result's front order.
  SearchEvaluator oracle(c.kernel, space, c.base);
  const std::vector<Genome> all = space.enumerate();
  const std::vector<Objectives> objectives = oracle.evaluate(all);
  const std::vector<std::size_t> front = bruteForceFront(objectives);

  if (got.front.size() != front.size()) {
    return fail("front size mismatch: search returned " +
                std::to_string(got.front.size()) + " points, oracle has " +
                std::to_string(front.size()));
  }
  for (std::size_t i = 0; i < front.size(); ++i) {
    const Genome& expectGenome = all[front[i]];
    const Objectives& expect = objectives[front[i]];
    const SearchPoint& gotPoint = got.front[i];
    if (gotPoint.genome != expectGenome) {
      return fail("front point " + std::to_string(i) +
                  " genome mismatch: search has " + gotPoint.decoded.label() +
                  ", oracle expects " + space.decode(expectGenome).label());
    }
    for (std::size_t o = 0; o < expect.size(); ++o) {
      if (gotPoint.objectives[o] != expect[o]) {
        static const char* const kNames[] = {"energy_nj", "cycles",
                                             "size_rbe"};
        return fail("front point " + std::to_string(i) + " (" +
                    gotPoint.decoded.label() + ") objective " + kNames[o] +
                    " mismatch: search=" + f64(gotPoint.objectives[o]) +
                    " oracle=" + f64(expect[o]));
      }
    }
  }
  return result;
}

DiffResult replaySearchDiffCase(
    std::uint64_t seed, const std::vector<std::size_t>& shrinkSteps) {
  SearchDiffCase c = makeSearchDiffCase(seed);
  for (const std::size_t step : shrinkSteps) {
    applySearchShrinkStep(c.space, step);
    c.shrinkSteps.push_back(step);
  }
  return checkSearchDiffCase(c);
}

DiffResult runSearchDifferentialCase(std::uint64_t seed) {
  SearchDiffCase c = makeSearchDiffCase(seed);
  DiffResult result = checkSearchDiffCase(c);
  if (result.ok) return result;

  // Greedy minimization: keep any reduction that preserves the
  // failure, until a full pass over the transforms changes nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t step = 0; step < kSearchShrinkSteps; ++step) {
      SearchDiffCase trial = c;
      if (!applySearchShrinkStep(trial.space, step)) continue;
      trial.shrinkSteps.push_back(step);
      DiffResult trialResult = checkSearchDiffCase(trial);
      if (!trialResult.ok) {
        c = std::move(trial);
        result = std::move(trialResult);
        changed = true;
      }
    }
  }
  return result;
}

DiffSummary runSearchDifferential(std::uint64_t firstSeed,
                                  std::size_t count) {
  DiffSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    const DiffResult r = runSearchDifferentialCase(firstSeed + i);
    ++summary.casesRun;
    if (!r.ok) summary.failures.push_back(r.message);
  }
  return summary;
}

}  // namespace memx::search
