#include "memx/search/nsga.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
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

/// A revisited child takes up to this many random draws before the
/// enumeration.
constexpr std::uint32_t kDrawRetries = 8;

/// Competitors per tournament pick (binary tournament).
constexpr std::uint32_t kTournamentSize = 2;
/// Probability a parent pair recombines.
constexpr double kCrossoverRate = 0.9;
/// Per-gene mutation probability.
constexpr double kMutationRate = 0.15;

}  // namespace

void SearchOptions::validate() const {
  MEMX_EXPECTS(populationSize >= 2, "population needs at least 2");
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
  for (std::uint32_t k = 1; k < kTournamentSize; ++k) {
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
    if (!chance(rng, kMutationRate)) continue;
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

  /// Every distinct genome evaluated this run with its objectives, by
  /// packed genome. Only the front is decoded, at the end.
  std::unordered_map<std::uint64_t, std::pair<Genome, Objectives>> visited;

  // The budget caps the distinct genomes this run visits. On a fresh
  // evaluator those are its fresh evaluations; on a warm one a repeat
  // run replays the first, stopping where it stopped.
  const auto remaining = [&] {
    return budget > visited.size() ? budget - visited.size() : 0;
  };

  // Drop unvisited genomes beyond the remaining budget (revisits and
  // in-batch duplicates cost nothing and are always kept), so a run
  // visits at most `budget` genomes.
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
      visited.try_emplace(key, batch[i], objs[i]);
    }
    return out;
  };

  // Breed one generation of offspring, every one a genome neither
  // visited nor already in the batch. A revisit is replaced by a random
  // draw, then (on enumerable spaces) by an unvisited genome of the
  // enumeration; a child with no fresh genome left to become is dropped.
  std::vector<Genome> enumeration;  // filled on first use
  const auto breed = [&](const std::vector<Individual>& parents) {
    std::vector<Genome> offspring;
    offspring.reserve(options_.populationSize);
    std::set<std::uint64_t> batch;
    const auto fresh = [&](const Genome& g) {
      const std::uint64_t key = space_.packed(g);
      return !visited.contains(key) && !batch.contains(key);
    };
    const auto keep = [&](const Genome& g) {
      batch.insert(space_.packed(g));
      offspring.push_back(g);
    };
    std::vector<Genome> unvisited;  // this generation's pool, on demand
    bool pooled = false;
    for (std::uint32_t k = 0; k < options_.populationSize; ++k) {
      const Genome& a = parents[tournament(parents, rng)].genome;
      const Genome& b = parents[tournament(parents, rng)].genome;
      Genome child = chance(rng, kCrossoverRate)
                         ? crossover(a, b, rng)
                         : a;
      child = space_.repair(mutate(child, rng));
      for (std::uint32_t t = 0; t < kDrawRetries && !fresh(child); ++t) {
        child = space_.randomGenome(rng);
      }
      if (fresh(child)) {
        keep(child);
        continue;
      }
      if (space_.size() > kEnumerationLimit) continue;
      if (!pooled) {
        if (enumeration.empty()) enumeration = space_.enumerate();
        for (const Genome& g : enumeration) {
          if (fresh(g)) unvisited.push_back(g);
        }
        pooled = true;
      }
      // Uniform pick without replacement; entries a draw has since put
      // in the batch are discarded on the way.
      while (!unvisited.empty()) {
        const std::size_t i =
            static_cast<std::size_t>(rng() % unvisited.size());
        const Genome g = unvisited[i];
        unvisited[i] = unvisited.back();
        unvisited.pop_back();
        if (fresh(g)) {
          keep(g);
          break;
        }
      }
      if (unvisited.empty()) break;  // the space has nothing fresh left
    }
    return offspring;
  };

  std::vector<Individual> pop =
      evaluateBatch(trimToBudget(initialPopulation(rng)));
  rankPopulation(pop);

  // Each generation ranks once: survivors keep the rank and crowding of
  // the parents-plus-offspring ranking that selected them.
  std::uint32_t generationsRun = 0;
  while (generationsRun < options_.generations && remaining() > 0 &&
         visited.size() < space_.size() && !pop.empty()) {
    const obs::ScopedSpan genSpan(recorder_, "search.generation");
    if (recorder_ != nullptr) {
      recorder_->counter("search.generations").add();
    }
    ++generationsRun;
    std::vector<Genome> offspring = breed(pop);
    if (offspring.empty()) break;  // no fresh genome left to breed
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
  std::vector<std::uint64_t> keys;
  keys.reserve(visited.size());
  for (const auto& entry : visited) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  std::vector<Objectives> objs;
  objs.reserve(keys.size());
  for (const std::uint64_t key : keys) objs.push_back(visited.at(key).second);
  for (const std::size_t i : nonDominatedFront(objs)) {
    const auto& [genome, objectives] = visited.at(keys[i]);
    result.front.push_back(
        SearchPoint{genome, space_.decode(genome), objectives});
  }
  result.evaluations = evaluator_.evaluations() - startEvals;
  result.cacheHits = evaluator_.cacheHits() - startHits;
  result.generations = generationsRun;
  result.spaceSize = space_.size();
  result.exact = visited.size() == space_.size();
  return result;
}

}  // namespace memx::search
