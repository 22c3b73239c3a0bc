// Metamorphic property checks over the simulation and model stack.
// Each property is an invariant the paper's pipeline must satisfy for
// *every* input, checked here on seeded random workloads; see
// docs/TESTING.md for the invariant list with paper-section references.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/miss_classifier.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/core/explorer.hpp"
#include "memx/core/parallel_explorer.hpp"
#include "memx/energy/energy_model.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/search/dominance.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/timing/cycle_model.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

class PropertySweep : public ::testing::TestWithParam<int> {
protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

// --- Stack inclusion (Mattson): for LRU, a set's resident lines are a
// superset of any narrower LRU set's, so at a fixed set count and line
// size the miss count is monotone non-increasing in associativity.
// (At fixed *capacity* T the property does not hold - halving the set
// count changes the index mapping; docs/TESTING.md shows the classic
// counterexample - so the harness states it the provable way.)
TEST_P(PropertySweep, LruMissesMonotoneInAssociativityAtFixedSets) {
  const Trace trace = randomCheckTrace(seed(), 300, 1200);
  for (const std::uint32_t sets : {1u, 4u, 16u}) {
    for (const std::uint32_t line : {8u, 16u}) {
      std::uint64_t prev = ~std::uint64_t{0};
      for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        CacheConfig c;
        c.lineBytes = line;
        c.associativity = assoc;
        c.sizeBytes = line * sets * assoc;
        c.replacement = ReplacementPolicy::LRU;
        const std::uint64_t misses = simulateTrace(c, trace).misses();
        EXPECT_LE(misses, prev)
            << "seed " << seed() << " sets=" << sets << " L=" << line
            << " S=" << assoc;
        prev = misses;
      }
    }
  }
}

// Fully-associative LRU inclusion across capacities (the form the
// paper's Section-3 working-set argument relies on).
TEST_P(PropertySweep, FullyAssociativeLruMonotoneInCapacity) {
  const Trace trace = randomCheckTrace(seed(), 300, 1200);
  std::uint64_t prev = ~std::uint64_t{0};
  for (const std::uint32_t size : {32u, 64u, 128u, 256u, 512u}) {
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = 8;
    c.associativity = c.numLines();
    const std::uint64_t misses = simulateTrace(c, trace).misses();
    EXPECT_LE(misses, prev) << "seed " << seed() << " C" << size;
    prev = misses;
  }
}

// --- Model sanity (paper Secs. 2.2-2.3): cycles and energy are
// non-negative and additive over trace concatenation. Counters of a
// continuous run split exactly at any point, and both models are linear
// in (hits, misses), so model(whole) == model(first part) +
// model(second part) up to floating-point rounding.
CacheStats minusStats(const CacheStats& a, const CacheStats& b) {
  CacheStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.readHits = a.readHits - b.readHits;
  d.readMisses = a.readMisses - b.readMisses;
  d.writeHits = a.writeHits - b.writeHits;
  d.writeMisses = a.writeMisses - b.writeMisses;
  d.lineFills = a.lineFills - b.lineFills;
  d.writebacks = a.writebacks - b.writebacks;
  d.memWrites = a.memWrites - b.memWrites;
  return d;
}

TEST_P(PropertySweep, CycleAndEnergyModelsAdditiveOverConcatenation) {
  const Trace trace = randomCheckTrace(seed(), 400, 1500);
  const CacheConfig config = randomCacheConfig(seed());

  // One continuous run, stats snapshotted at the split point.
  CacheSim sim(config);
  const std::size_t split = trace.size() / 3;
  for (std::size_t i = 0; i < split; ++i) sim.access(trace[i]);
  const CacheStats first = sim.stats();
  for (std::size_t i = split; i < trace.size(); ++i) sim.access(trace[i]);
  const CacheStats whole = sim.stats();
  const CacheStats second = minusStats(whole, first);

  const CycleModel cycles;
  const double cWhole = cycles.cycles(whole, config);
  const double cParts =
      cycles.cycles(first, config) + cycles.cycles(second, config);
  EXPECT_GE(cWhole, 0.0);
  EXPECT_NEAR(cWhole, cParts, 1e-9 * (1.0 + cWhole)) << "seed " << seed();

  const CacheEnergyModel energy(config, EnergyParams{},
                                kDefaultAddrSwitchesPerAccess);
  const double eWhole = energy.totalNj(whole);
  const double eParts = energy.totalNj(first) + energy.totalNj(second);
  EXPECT_GE(eWhole, 0.0);
  EXPECT_NEAR(eWhole, eParts, 1e-9 * (1.0 + eWhole)) << "seed " << seed();

  // The write-inclusive variant is additive too (it is a plain linear
  // combination of the counters).
  const double wWhole = energy.totalIncludingWritesNj(whole);
  const double wParts = energy.totalIncludingWritesNj(first) +
                        energy.totalIncludingWritesNj(second);
  EXPECT_GE(wWhole, 0.0);
  EXPECT_NEAR(wWhole, wParts, 1e-9 * (1.0 + wWhole)) << "seed " << seed();
}

// --- Paper Sec. 4.1: when the conflict-free assignment reports a
// complete placement, the padded layout exhibits zero conflict misses.
TEST_P(PropertySweep, CompletePaddingPlanKillsConflictMisses) {
  const Kernel k = randomStencilKernel(seed());
  for (const std::uint32_t size : {128u, 256u, 512u}) {
    CacheConfig cache;
    cache.sizeBytes = size;
    cache.lineBytes = 8;
    const AssignmentPlan plan = assignConflictFree(k, cache);
    if (!plan.complete) continue;
    const MissBreakdown b =
        classifyMisses(cache, generateTrace(k, plan.layout));
    EXPECT_EQ(b.conflict, 0u) << k.name << " C" << size;
  }
}

// --- PR-1 engine contract: the shared-trace sweep, the parallel sweep
// and the per-point reference path are bit-identical.
TEST(Properties, ExploreParallelAndPerPointAreBitIdentical) {
  ExploreOptions options;
  options.ranges.onChipBytes = 256;
  options.ranges.maxCacheBytes = 256;
  options.ranges.minCacheBytes = 32;
  options.ranges.maxLineBytes = 16;
  options.ranges.maxAssociativity = 2;
  options.ranges.maxTiling = 2;
  const Kernel kernel = compressKernel(16);

  const Explorer explorer(options);
  const ExplorationResult serial = explorer.explore(kernel);
  const ExplorationResult parallel =
      exploreParallel(kernel, options, 4);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  ASSERT_FALSE(serial.points.empty());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const DesignPoint& s = serial.points[i];
    const DesignPoint& p = parallel.points[i];
    EXPECT_EQ(s.key, p.key);
    EXPECT_EQ(s.accesses, p.accesses);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(s.missRate, p.missRate) << s.label();
    EXPECT_EQ(s.cycles, p.cycles) << s.label();
    EXPECT_EQ(s.energyNj, p.energyNj) << s.label();

    const DesignPoint one = explorer.evaluate(
        kernel, explorer.configFor(s.key), s.key.tiling);
    EXPECT_EQ(s.accesses, one.accesses) << s.label();
    EXPECT_EQ(s.missRate, one.missRate) << s.label();
    EXPECT_EQ(s.cycles, one.cycles) << s.label();
    EXPECT_EQ(s.energyNj, one.energyNj) << s.label();
  }
}

// --- Stack-inclusion monotonicity, asserted on the stack-distance
// engine itself (not the simulator): one AllAssocProfile serves every
// (sets, ways) corner, so both axes read off a single trace pass.
TEST_P(PropertySweep, StackDistMissesMonotoneInAssociativityAtFixedSets) {
  const Trace trace = randomCheckTrace(seed(), 300, 1200);
  const AllAssocProfile profile(trace, 8, 16, 8);
  for (const std::uint32_t sets : {1u, 4u, 16u}) {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
      const std::uint64_t misses = profile.misses(sets, assoc);
      EXPECT_LE(misses, prev)
          << "seed " << seed() << " sets=" << sets << " ways=" << assoc;
      prev = misses;
    }
  }
}

// Growing T at fixed S and L adds sets; under bit-selection indexing a
// set of the bigger cache holds a subset of the lines contending in the
// corresponding set of the smaller one, so per-set stack distances only
// shrink: misses are non-increasing in cache size at fixed ways.
TEST_P(PropertySweep, StackDistMissesMonotoneInCacheSizeAtFixedWays) {
  const Trace trace = randomCheckTrace(seed(), 300, 1200);
  const AllAssocProfile profile(trace, 8, 16, 8);
  for (const std::uint32_t assoc : {1u, 2u, 8u}) {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const std::uint32_t sets : {1u, 2u, 4u, 8u, 16u}) {
      const std::uint64_t misses = profile.misses(sets, assoc);
      EXPECT_LE(misses, prev)
          << "seed " << seed() << " sets=" << sets << " ways=" << assoc;
      prev = misses;
    }
  }
}

// --- Engine contract: explore() resolves LRU, FIFO and tree-PLRU
// sweeps to the analytic engine, and its points must be bit-identical
// to the same plan drained with every group on the MultiSim engine, on the
// workloads the golden corpus pins (so any drift is double-caught).
// The write-energy metric reads memWrites and writebacks, so the
// write-back + includeWriteEnergy runs pin the dirty-stack and
// per-cell dirty-bit writeback counts bit for bit through the energy
// totals; the others are the paper's read-only model.
void expectAnalyticMatchesSimulatedPlan(const ExploreOptions& options) {
  const Kernel kernels[] = {compressKernel(), matrixAddKernel(8),
                            dequantKernel(16), transposeKernel(16)};
  const Explorer explorer(options);
  ASSERT_EQ(explorer.resolvedBackend(), SweepBackend::StackDist);
  for (const Kernel& kernel : kernels) {
    SCOPED_TRACE(toString(options.replacement) + " " +
                 kernel.name + " writeEnergy=" +
                 (options.includeWriteEnergy ? "1" : "0"));
    const ExplorationResult analytic = explorer.explore(kernel);
    SweepPlan plan = explorer.planSweep(kernel, explorer.sweepKeys());
    std::vector<DesignPoint> simulated(plan.keys.size());
    Explorer::PatternCache patterns;
    for (SweepPlan::Group& group : plan.groups) {
      group.backend = SweepBackend::MultiSim;
      const Trace trace = explorer.buildGroupTrace(kernel, group, patterns);
      explorer.evaluateGroup(group, trace, explorer.addrActivityFor(trace),
                             plan.keys, simulated);
    }
    ASSERT_EQ(analytic.points.size(), simulated.size());
    ASSERT_FALSE(simulated.empty());
    for (std::size_t i = 0; i < simulated.size(); ++i) {
      const DesignPoint& a = analytic.points[i];
      const DesignPoint& s = simulated[i];
      ASSERT_EQ(a.key, s.key);
      EXPECT_EQ(a.accesses, s.accesses) << a.label();
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.missRate, s.missRate) << a.label();
      EXPECT_EQ(a.cycles, s.cycles) << a.label();
      EXPECT_EQ(a.energyNj, s.energyNj) << a.label();
    }
  }
}

ExploreOptions goldenCorpusSweep() {
  ExploreOptions options;
  options.ranges.onChipBytes = 256;
  options.ranges.maxCacheBytes = 256;
  options.ranges.minCacheBytes = 16;
  options.ranges.minLineBytes = 4;
  options.ranges.maxLineBytes = 32;
  options.ranges.maxAssociativity = 4;
  options.ranges.maxTiling = 4;
  options.writePolicy = WritePolicy::WriteBack;
  return options;
}

TEST(Properties, StackDistBackendBitIdenticalToMultiSimOnGoldenCorpus) {
  ExploreOptions options = goldenCorpusSweep();
  for (const bool writeEnergy : {false, true}) {
    options.includeWriteEnergy = writeEnergy;
    expectAnalyticMatchesSimulatedPlan(options);
  }
}

// The same contract for the policy-grid engine on FIFO and tree-PLRU
// sweeps.
TEST(Properties, GridBackendBitIdenticalToMultiSimOnGoldenCorpus) {
  ExploreOptions options = goldenCorpusSweep();
  for (const ReplacementPolicy rp :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU}) {
    options.replacement = rp;
    for (const bool writeEnergy : {false, true}) {
      options.includeWriteEnergy = writeEnergy;
      expectAnalyticMatchesSimulatedPlan(options);
    }
  }
}

// The engine follows from the replacement policy alone: LRU runs the
// Hill-Smith profile and FIFO and tree-PLRU the single-pass policy
// grid under either write policy, with or without write energy, and
// only a Random sweep (simulator-owned rng stream) simulates.
TEST(Properties, ForcedStackDistBackendRejectsIneligibleOptions) {
  ExploreOptions options;
  for (const ReplacementPolicy rp :
       {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
        ReplacementPolicy::TreePLRU, ReplacementPolicy::Random}) {
    options.replacement = rp;
    const SweepBackend expected = rp == ReplacementPolicy::Random
                                      ? SweepBackend::MultiSim
                                      : SweepBackend::StackDist;
    for (const WritePolicy wp :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      options.writePolicy = wp;
      for (const bool writeEnergy : {false, true}) {
        options.includeWriteEnergy = writeEnergy;
        EXPECT_EQ(resolveBackend(options), expected)
            << toString(rp) << " " << toString(wp) << " " << writeEnergy;
        EXPECT_EQ(Explorer(options).resolvedBackend(), expected);
      }
    }
  }
}

// --- Pareto dominance and front extraction (the search engine's
// foundations). Dominance must be a strict partial order, and the
// non-dominated set must be invariant under the two transformations a
// correct extractor cannot notice: positive affine rescaling of each
// objective and a reorder of the candidate points.

std::vector<search::Objectives> randomObjectiveSet(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // A coarse grid forces exact ties and duplicates; odd seeds use a
  // fine grid for near-general position.
  const std::uint64_t grid = seed % 2 == 0 ? 5 : 1000;
  std::vector<search::Objectives> points(60 + rng() % 60);
  for (search::Objectives& p : points) {
    for (double& o : p) o = static_cast<double>(rng() % grid);
  }
  return points;
}

TEST_P(PropertySweep, ParetoDominanceIsAStrictPartialOrder) {
  const std::vector<search::Objectives> points = randomObjectiveSet(seed());
  for (const search::Objectives& a : points) {
    EXPECT_FALSE(search::dominates(a, a));  // irreflexive
  }
  std::mt19937_64 rng(seed() ^ 0xabcdu);
  for (int i = 0; i < 400; ++i) {
    const search::Objectives& a = points[rng() % points.size()];
    const search::Objectives& b = points[rng() % points.size()];
    const search::Objectives& c = points[rng() % points.size()];
    if (search::dominates(a, b)) {
      EXPECT_FALSE(search::dominates(b, a));  // asymmetric
      if (search::dominates(b, c)) {
        EXPECT_TRUE(search::dominates(a, c));  // transitive
      }
    }
  }
}

TEST_P(PropertySweep, ParetoFrontInvariantUnderPositiveAffineRescale) {
  const std::vector<search::Objectives> points = randomObjectiveSet(seed());
  const std::vector<std::size_t> front = search::nonDominatedFront(points);

  std::mt19937_64 rng(seed() ^ 0x5ca1eu);
  const auto scale = [&] { return 0.25 + static_cast<double>(rng() % 16); };
  const auto shift = [&] {
    return static_cast<double>(rng() % 100) - 50.0;
  };
  const double a0 = scale(), b0 = shift();
  const double a1 = scale(), b1 = shift();
  const double a2 = scale(), b2 = shift();
  std::vector<search::Objectives> rescaled = points;
  for (search::Objectives& p : rescaled) {
    p[0] = a0 * p[0] + b0;
    p[1] = a1 * p[1] + b1;
    p[2] = a2 * p[2] + b2;
  }
  EXPECT_EQ(search::nonDominatedFront(rescaled), front)
      << "seed " << seed() << ": positive affine rescaling must not "
      << "change front membership";
}

TEST_P(PropertySweep, ParetoFrontInvariantUnderEnumerationOrderShuffle) {
  const std::vector<search::Objectives> points = randomObjectiveSet(seed());
  const std::vector<std::size_t> front = search::nonDominatedFront(points);

  std::vector<std::size_t> perm(points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937_64 rng(seed() ^ 0xf00du);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<search::Objectives> shuffled(points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled[i] = points[perm[i]];
  }
  // Map the shuffled front back to original indices; as a set it must
  // equal the original front (duplicates make per-index comparison
  // meaningless, so compare the multiset of objective vectors too).
  std::vector<std::size_t> mappedBack;
  for (const std::size_t i : search::nonDominatedFront(shuffled)) {
    mappedBack.push_back(perm[i]);
  }
  std::sort(mappedBack.begin(), mappedBack.end());
  EXPECT_EQ(mappedBack, front)
      << "seed " << seed() << ": reordering candidates must not change "
      << "front membership";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(1, 21));

}  // namespace
}  // namespace memx
