#include "memx/search/nsga.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "memx/obs/recorder.hpp"
#include "memx/util/assert.hpp"

namespace memx::search {

namespace {

/// Canonical uniform double in [0, 1): 53 top bits of one engine draw,
/// so the draw count per decision is fixed and platform-independent.
double u01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

bool chance(std::mt19937_64& rng, double p) { return u01(rng) < p; }

/// Spaces up to this size may be enumerated for stratified seeding and
/// the exhaustive mop-up; larger spaces never are.
constexpr std::uint64_t kEnumerationLimit = 1ull << 20;

}  // namespace

void SearchOptions::validate() const {
  MEMX_EXPECTS(populationSize >= 2, "population needs at least 2");
  MEMX_EXPECTS(tournamentSize >= 1, "tournament needs at least 1 pick");
  MEMX_EXPECTS(crossoverRate >= 0.0 && crossoverRate <= 1.0,
               "crossover rate out of [0, 1]");
  MEMX_EXPECTS(mutationRate >= 0.0 && mutationRate <= 1.0,
               "mutation rate out of [0, 1]");
}

NsgaSearch::NsgaSearch(Kernel kernel, DesignSpace space, ExploreOptions base,
                       SearchOptions options, obs::Recorder* recorder)
    : space_(std::move(space)),
      options_(std::move(options)),
      recorder_(recorder),
      evaluator_(std::move(kernel), space_, std::move(base), recorder),
      workload_(evaluator_.kernel().name) {
  options_.validate();
}

std::vector<Genome> NsgaSearch::initialPopulation(std::mt19937_64& rng) {
  std::vector<Genome> population;
  population.reserve(options_.populationSize);
  // Deterministic corner seeds: the extreme genomes anchor the front's
  // boundary regions (min size, max performance) from generation zero.
  const auto corner = [&](bool maxGeometry, bool maxRest) {
    Genome g{};
    for (std::size_t i = 0; i < kGeneCount; ++i) {
      const bool geometry = i <= static_cast<std::size_t>(Gene::Tiling);
      if (geometry ? maxGeometry : maxRest) {
        g[i] = static_cast<std::uint8_t>(
            space_.dimSize(static_cast<Gene>(i)) - 1);
      }
    }
    return space_.repair(g);
  };
  population.push_back(corner(false, false));
  population.push_back(corner(true, false));
  population.push_back(corner(false, true));
  population.push_back(corner(true, true));
  // Stratified seeds: every k-th genome of the enumeration covers the
  // space evenly — cheap insurance against a cold random start (only
  // for spaces small enough to enumerate).
  if (space_.size() <= kEnumerationLimit &&
      population.size() < options_.populationSize) {
    const std::vector<Genome> all = space_.enumerate();
    const std::size_t want = std::min<std::size_t>(
        options_.populationSize / 2,
        options_.populationSize - population.size());
    const std::size_t count = std::min<std::size_t>(want, all.size());
    for (std::size_t i = 0; i < count; ++i) {
      population.push_back(all[i * all.size() / count]);
    }
  }
  while (population.size() < options_.populationSize) {
    population.push_back(space_.randomGenome(rng));
  }
  population.resize(
      std::min<std::size_t>(population.size(), options_.populationSize));
  return population;
}

void NsgaSearch::rankPopulation(std::vector<Individual>& pop) const {
  const obs::ScopedSpan span(recorder_, "search.rank");
  std::vector<Objectives> objs;
  objs.reserve(pop.size());
  for (const Individual& ind : pop) objs.push_back(ind.objectives);
  const std::vector<std::uint32_t> ranks = nonDominatedRanks(objs);
  // Bucket the population by rank (a counting sort, so each front lists
  // its members in ascending index order), then crowd front by front.
  const std::uint32_t fronts =
      ranks.empty() ? 0 : *std::max_element(ranks.begin(), ranks.end()) + 1;
  std::vector<std::size_t> bounds(fronts + 1, 0);
  for (const std::uint32_t r : ranks) ++bounds[r + 1];
  std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
  std::vector<std::size_t> members(pop.size());
  std::vector<std::size_t> cursor(bounds.begin(), bounds.end() - 1);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    pop[i].rank = ranks[i];
    members[cursor[ranks[i]]++] = i;
  }
  for (std::uint32_t f = 0; f < fronts; ++f) {
    const std::span<const std::size_t> front(members.data() + bounds[f],
                                             bounds[f + 1] - bounds[f]);
    const std::vector<double> crowd = crowdingDistances(objs, front);
    for (std::size_t m = 0; m < front.size(); ++m) {
      pop[front[m]].crowding = crowd[m];
    }
  }
}

std::size_t NsgaSearch::tournament(const std::vector<Individual>& pop,
                                   std::mt19937_64& rng) const {
  // Crowded-comparison: lower rank wins, then larger crowding, then the
  // smaller packed key as the deterministic last resort.
  const auto better = [&](std::size_t a, std::size_t b) {
    if (pop[a].rank != pop[b].rank) return pop[a].rank < pop[b].rank;
    if (pop[a].crowding != pop[b].crowding) {
      return pop[a].crowding > pop[b].crowding;
    }
    return pop[a].key < pop[b].key;
  };
  std::size_t best = static_cast<std::size_t>(rng() % pop.size());
  for (std::uint32_t k = 1; k < options_.tournamentSize; ++k) {
    const std::size_t challenger =
        static_cast<std::size_t>(rng() % pop.size());
    if (better(challenger, best)) best = challenger;
  }
  return best;
}

Genome NsgaSearch::crossover(const Genome& a, const Genome& b,
                             std::mt19937_64& rng) const {
  Genome child{};
  if (chance(rng, 0.5)) {
    // Uniform: each gene from either parent.
    for (std::size_t i = 0; i < kGeneCount; ++i) {
      child[i] = (rng() & 1) != 0 ? a[i] : b[i];
    }
  } else {
    // Arithmetic on the index scale, odd midpoints rounded by coin.
    for (std::size_t i = 0; i < kGeneCount; ++i) {
      const std::uint32_t sum = static_cast<std::uint32_t>(a[i]) + b[i];
      child[i] = static_cast<std::uint8_t>((sum + (rng() & 1)) / 2);
    }
  }
  return child;
}

Genome NsgaSearch::mutate(Genome g, std::mt19937_64& rng) const {
  for (std::size_t i = 0; i < kGeneCount; ++i) {
    if (!chance(rng, options_.mutationRate)) continue;
    const std::size_t dim = space_.dimSize(static_cast<Gene>(i));
    if (chance(rng, 0.5)) {
      // Creep: one step along the (ordered) dimension.
      const bool up = (rng() & 1) != 0;
      if (up && g[i] + 1u < dim) {
        ++g[i];
      } else if (!up && g[i] > 0) {
        --g[i];
      }
    } else {
      g[i] = static_cast<std::uint8_t>(rng() % dim);
    }
  }
  return g;
}

SearchResult NsgaSearch::run() {
  const obs::ScopedSpan span(recorder_, "search.run");
  std::mt19937_64 rng(options_.seed);
  const std::uint64_t startEvals = evaluator_.evaluations();
  const std::uint64_t startHits = evaluator_.cacheHits();
  const std::uint64_t budget =
      options_.maxEvaluations != 0
          ? options_.maxEvaluations
          : static_cast<std::uint64_t>(options_.populationSize) *
                (options_.generations + 1);
  const auto spent = [&] { return evaluator_.evaluations() - startEvals; };
  const auto remaining = [&] {
    const std::uint64_t used = spent();
    return budget > used ? budget - used : 0;
  };

  /// Every distinct genome evaluated this run, in packed order.
  std::map<std::uint64_t, SearchPoint> visited;

  // Drop fresh genomes beyond the remaining budget (cache hits and
  // in-batch duplicates are free and always kept), so the evaluator
  // never exceeds `budget` fresh evaluations.
  const auto trimToBudget = [&](std::vector<Genome> batch) {
    std::vector<Genome> kept;
    kept.reserve(batch.size());
    std::set<std::uint64_t> freshKeys;
    const std::uint64_t room = remaining();
    for (Genome& g : batch) {
      const std::uint64_t key = space_.packed(g);
      if (!visited.contains(key) && !freshKeys.contains(key)) {
        if (freshKeys.size() >= room) continue;
        freshKeys.insert(key);
      }
      kept.push_back(g);
    }
    return kept;
  };

  const auto evaluateBatch = [&](const std::vector<Genome>& batch) {
    const std::vector<Objectives> objs = evaluator_.evaluate(batch);
    std::vector<Individual> out;
    out.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::uint64_t key = space_.packed(batch[i]);
      out.push_back(Individual{batch[i], key, objs[i], 0, 0.0});
      visited.try_emplace(
          key, SearchPoint{batch[i], space_.decode(batch[i]), objs[i]});
    }
    return out;
  };

  std::vector<Individual> pop =
      evaluateBatch(trimToBudget(initialPopulation(rng)));

  std::uint32_t generationsRun = 0;
  while (generationsRun < options_.generations && remaining() > 0 &&
         !pop.empty()) {
    const obs::ScopedSpan genSpan(recorder_, "search.generation");
    if (recorder_ != nullptr) {
      recorder_->counter("search.generations").add();
    }
    rankPopulation(pop);
    std::vector<Genome> offspring;
    offspring.reserve(options_.populationSize);
    for (std::uint32_t k = 0; k < options_.populationSize; ++k) {
      const Genome& a = pop[tournament(pop, rng)].genome;
      const Genome& b = pop[tournament(pop, rng)].genome;
      Genome child = chance(rng, options_.crossoverRate)
                         ? crossover(a, b, rng)
                         : a;
      offspring.push_back(space_.repair(mutate(child, rng)));
    }
    const std::vector<Individual> kids =
        evaluateBatch(trimToBudget(std::move(offspring)));
    pop.insert(pop.end(), kids.begin(), kids.end());
    rankPopulation(pop);
    // Elitist environmental selection with a fully deterministic order.
    std::sort(pop.begin(), pop.end(),
              [&](const Individual& x, const Individual& y) {
                if (x.rank != y.rank) return x.rank < y.rank;
                if (x.crowding != y.crowding) return x.crowding > y.crowding;
                return x.key < y.key;
              });
    if (pop.size() > options_.populationSize) {
      pop.resize(options_.populationSize);
    }
    ++generationsRun;
  }

  // Budget mop-up: when what's left of the budget covers every genome
  // not yet visited, finish the job — the front becomes exact.
  if (options_.finishExhaustively && visited.size() < space_.size() &&
      space_.size() <= kEnumerationLimit &&
      remaining() >= space_.size() - visited.size()) {
    std::vector<Genome> rest;
    for (const Genome& g : space_.enumerate()) {
      if (!visited.contains(space_.packed(g))) rest.push_back(g);
    }
    (void)evaluateBatch(rest);
  }

  SearchResult result;
  result.workload = workload_;
  std::vector<SearchPoint> points;
  std::vector<Objectives> objs;
  points.reserve(visited.size());
  objs.reserve(visited.size());
  for (const auto& [key, sp] : visited) {
    points.push_back(sp);
    objs.push_back(sp.objectives);
  }
  for (const std::size_t i : nonDominatedFront(objs)) {
    result.front.push_back(points[i]);
  }
  result.evaluations = spent();
  result.cacheHits = evaluator_.cacheHits() - startHits;
  result.generations = generationsRun;
  result.spaceSize = space_.size();
  result.exact = visited.size() == space_.size();
  return result;
}

}  // namespace memx::search
