// Unit and determinism tests for the Pareto search subsystem: design
// space encoding/repair, the dominance kernel (against brute force and
// known answers), evaluator caching, and seed/backed reproducibility
// of full searches. The exhaustive differentials live in
// search_differential_test.cpp; the pinned fronts in
// golden_front_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>

#include "memx/kernels/benchmarks.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/search/design_space.hpp"
#include "memx/search/dominance.hpp"
#include "memx/search/evaluator.hpp"
#include "memx/search/front_io.hpp"
#include "memx/search/nsga.hpp"
#include "memx/check/search_diff.hpp"
#include "memx/util/assert.hpp"
#include "ranking_cases.hpp"

namespace memx::search {
namespace {

/// A small joint space exercising every gene: 2 cache sizes x lines x
/// assoc x tiling, 2 replacements, 2 write policies, both layouts, and
/// one optional L2.
DesignSpaceOptions smallJointSpace() {
  DesignSpaceOptions s;
  s.ranges.onChipBytes = 64;
  s.ranges.minCacheBytes = 16;
  s.ranges.maxCacheBytes = 64;
  s.ranges.minLineBytes = 4;
  s.ranges.maxLineBytes = 16;
  s.ranges.maxAssociativity = 2;
  s.ranges.maxTiling = 2;
  s.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO};
  s.writePolicies = {WritePolicy::WriteBack, WritePolicy::WriteThrough};
  s.sweepLayout = true;
  s.l2CapacityBytes = {256};
  return s;
}

TEST(DesignSpace, EnumerateMatchesAnalyticSizeAndIsValid) {
  const DesignSpace space(smallJointSpace());
  const std::vector<Genome> all = space.enumerate();
  EXPECT_EQ(all.size(), space.size());
  ASSERT_FALSE(all.empty());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(space.isValid(all[i]));
    const std::uint64_t packed = space.packed(all[i]);
    if (i != 0) {
      EXPECT_LT(prev, packed) << "enumerate() must yield strictly "
                                 "increasing packed order at " << i;
    }
    prev = packed;
  }
}

TEST(DesignSpace, RepairIsIdempotentAndProducesValidGenomes) {
  const DesignSpace space(smallJointSpace());
  std::mt19937_64 rng(99);
  for (int i = 0; i < 2000; ++i) {
    Genome raw;
    for (std::uint8_t& g : raw) {
      g = static_cast<std::uint8_t>(rng());  // arbitrary bytes
    }
    const Genome fixed = space.repair(raw);
    EXPECT_TRUE(space.isValid(fixed));
    EXPECT_EQ(space.repair(fixed), fixed) << "repair must be idempotent";
  }
}

TEST(DesignSpace, RepairKeepsValidGenomesUntouched) {
  const DesignSpace space(smallJointSpace());
  for (const Genome& g : space.enumerate()) {
    EXPECT_EQ(space.repair(g), g);
  }
}

TEST(DesignSpace, DecodeProducesValidatedConfigs) {
  const DesignSpace space(smallJointSpace());
  for (const Genome& g : space.enumerate()) {
    const JointPoint p = space.decode(g);
    EXPECT_GE(p.key.cacheBytes, 16u);
    EXPECT_LE(p.key.cacheBytes, 64u);
    EXPECT_LE(p.key.lineBytes, p.key.cacheBytes);
    if (p.l2) {
      EXPECT_EQ(p.l2->sizeBytes, 256u);
      EXPECT_GE(p.l2->lineBytes, p.key.lineBytes);
    }
    EXPECT_FALSE(p.label().empty());
  }
}

TEST(DesignSpace, RandomGenomesAreValid) {
  const DesignSpace space(smallJointSpace());
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(space.isValid(space.randomGenome(rng)));
  }
}

TEST(Dominance, DominatesIsStrictAndComponentwise) {
  const Objectives a{1.0, 2.0, 3.0};
  EXPECT_FALSE(dominates(a, a));  // irreflexive
  EXPECT_TRUE(dominates(Objectives{1.0, 2.0, 2.0}, a));
  EXPECT_TRUE(dominates(Objectives{0.0, 0.0, 0.0}, a));
  EXPECT_FALSE(dominates(Objectives{0.0, 0.0, 4.0}, a));  // trade-off
  EXPECT_FALSE(dominates(a, Objectives{1.0, 2.0, 2.0}));
}

std::vector<Objectives> randomObjectives(std::uint64_t seed,
                                         std::size_t count,
                                         int distinctValues) {
  std::mt19937_64 rng(seed);
  std::vector<Objectives> points(count);
  for (Objectives& p : points) {
    for (double& o : p) {
      // A coarse value grid forces ties and duplicate points.
      o = static_cast<double>(rng() % distinctValues);
    }
  }
  return points;
}

TEST(Dominance, ProductionExtractorMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::vector<Objectives> points =
        randomObjectives(seed, 120, seed % 2 == 0 ? 4 : 64);
    EXPECT_EQ(nonDominatedFront(points), bruteForceFront(points))
        << "seed " << seed;
  }
}

TEST(Dominance, RankZeroIsTheFront) {
  const std::vector<Objectives> points = randomObjectives(7, 80, 8);
  const std::vector<std::uint32_t> ranks = nonDominatedRanks(points);
  std::vector<std::size_t> rankZero;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ranks[i] == 0) rankZero.push_back(i);
  }
  EXPECT_EQ(rankZero, bruteForceFront(points));
  // Every rank-k point is dominated by some rank-(k-1) point.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ranks[i] == 0) continue;
    bool covered = false;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (ranks[j] == ranks[i] - 1 && dominates(points[j], points[i])) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "point " << i << " rank " << ranks[i];
  }
}

TEST(Dominance, RanksMatchBruteForce) {
  for (int s = 0; s < kRankingShapes; ++s) {
    const auto shape = static_cast<RankingShape>(s);
    for (const std::size_t n : {0, 1, 2, 3, 5, 16, 64, 255, 300}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::vector<Objectives> points = rankingCase(shape, n, seed);
        const std::vector<std::uint32_t> ranks = nonDominatedRanks(points);
        EXPECT_EQ(ranks, bruteForceRanks(points))
            << "shape " << s << " n " << n << " seed " << seed;
        // The shapes produce the front structure they are named for.
        const std::uint32_t deepest =
            ranks.empty() ? 0 : *std::max_element(ranks.begin(), ranks.end());
        if (shape == RankingShape::AntiCorrelated) {
          EXPECT_EQ(deepest, 0u);
        }
        if (shape == RankingShape::StrictChain && n > 0) {
          EXPECT_EQ(deepest, n - 1);
        }
      }
    }
  }
}

TEST(Dominance, CrowdingBoundariesAreInfiniteAndTiesDeterministic) {
  const std::vector<Objectives> points{
      {0.0, 4.0, 1.0}, {1.0, 3.0, 1.0}, {2.0, 2.0, 1.0},
      {3.0, 1.0, 1.0}, {4.0, 0.0, 1.0},
  };
  std::vector<std::size_t> members{0, 1, 2, 3, 4};
  const std::vector<double> crowd = crowdingDistances(points, members);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[4]));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(crowd[i], 0.0);
    EXPECT_FALSE(std::isinf(crowd[i]));
  }
  // Duplicate points: the (value, index) sort key makes the assignment
  // deterministic — same call, same distances, run after run.
  const std::vector<Objectives> dups(6, Objectives{1.0, 1.0, 1.0});
  std::vector<std::size_t> dupMembers{0, 1, 2, 3, 4, 5};
  const std::vector<double> first = crowdingDistances(dups, dupMembers);
  const std::vector<double> second = crowdingDistances(dups, dupMembers);
  EXPECT_EQ(first, second);
}

TEST(Dominance, HypervolumeKnownAnswers) {
  const Objectives ref{1.0, 1.0, 1.0};
  const auto hv = [&](std::vector<Objectives> points) {
    return hypervolume(points, ref);
  };
  // One point at the ideal corner sweeps the whole unit cube.
  EXPECT_DOUBLE_EQ(hv({Objectives{0.0, 0.0, 0.0}}), 1.0);
  // A half-scale point sweeps its own box.
  EXPECT_DOUBLE_EQ(hv({Objectives{0.5, 0.5, 0.5}}), 0.125);
  // Two trade-off points: union of two boxes, overlap counted once.
  EXPECT_DOUBLE_EQ(
      hv({Objectives{0.5, 0.0, 0.0}, Objectives{0.0, 0.5, 0.0}}), 0.75);
  // A dominated point adds nothing.
  EXPECT_DOUBLE_EQ(
      hv({Objectives{0.0, 0.0, 0.0}, Objectives{0.5, 0.5, 0.5}}), 1.0);
  // Points at or beyond the reference contribute nothing.
  EXPECT_DOUBLE_EQ(hv({Objectives{1.0, 0.0, 0.0}}), 0.0);
  EXPECT_DOUBLE_EQ(hv({Objectives{2.0, 2.0, 2.0}}), 0.0);
  EXPECT_DOUBLE_EQ(hv({}), 0.0);
}

TEST(Dominance, HypervolumeIsMonotoneInAddedPoints) {
  const Objectives ref{8.0, 8.0, 8.0};
  std::vector<Objectives> points;
  double prev = 0.0;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 40; ++i) {
    points.push_back(Objectives{static_cast<double>(rng() % 8),
                                static_cast<double>(rng() % 8),
                                static_cast<double>(rng() % 8)});
    const double hv = hypervolume(points, ref);
    EXPECT_GE(hv, prev - 1e-12) << "adding a point shrank the volume";
    prev = hv;
  }
}

TEST(Evaluator, ArchiveServesRepeatsBitIdentically) {
  const DesignSpace space(smallJointSpace());
  SearchEvaluator evaluator(matrixAddKernel(6, 1), space, ExploreOptions{});
  std::vector<Genome> batch = space.enumerate();
  batch.resize(40);
  const std::vector<Objectives> first = evaluator.evaluate(batch);
  EXPECT_EQ(evaluator.evaluations(), 40u);
  EXPECT_EQ(evaluator.cacheHits(), 0u);
  const std::vector<Objectives> second = evaluator.evaluate(batch);
  EXPECT_EQ(evaluator.evaluations(), 40u) << "repeats must be free";
  EXPECT_EQ(evaluator.cacheHits(), 40u);
  EXPECT_EQ(first, second);

  // Two genomes that differ only in the L2 gene share one ConfigKey but
  // are two designs: the cache key is the whole genome.
  const std::vector<Genome> all = space.enumerate();
  const std::size_t l2 = static_cast<std::size_t>(Gene::L2);
  std::size_t pair = batch.size();
  while (pair + 1 < all.size() &&
         !(all[pair][l2] == 0 && all[pair + 1][l2] == 1)) {
    ++pair;
  }
  ASSERT_LT(pair + 1, all.size());
  const std::vector<Genome> twins{all[pair], all[pair + 1]};
  ASSERT_EQ(space.decode(twins[0]).key, space.decode(twins[1]).key);
  const std::vector<Objectives> fresh = evaluator.evaluate(twins);
  EXPECT_EQ(evaluator.evaluations(), 42u);
  EXPECT_EQ(evaluator.cacheHits(), 40u);
  EXPECT_NE(fresh[0], fresh[1]);
  EXPECT_EQ(evaluator.evaluate(twins), fresh);
  EXPECT_EQ(evaluator.evaluations(), 42u);
  EXPECT_EQ(evaluator.cacheHits(), 42u);
}

TEST(Evaluator, InBatchDuplicatesCountAsHits) {
  const DesignSpace space(smallJointSpace());
  SearchEvaluator evaluator(matrixAddKernel(6, 1), space, ExploreOptions{});
  const std::vector<Genome> all = space.enumerate();
  const std::vector<Genome> batch{all[0], all[1], all[0], all[1], all[0]};
  const std::vector<Objectives> objs = evaluator.evaluate(batch);
  EXPECT_EQ(evaluator.evaluations(), 2u);
  EXPECT_EQ(evaluator.cacheHits(), 3u);
  EXPECT_EQ(objs[0], objs[2]);
  EXPECT_EQ(objs[0], objs[4]);
  EXPECT_EQ(objs[1], objs[3]);
}

TEST(Evaluator, L2SpaceRejectsWriteEnergyAndLeakage) {
  // L2 genes fold through a model with no write or leakage term, so a
  // space with L2 capacities must refuse both options up front rather
  // than put two energy models on one front.
  const DesignSpace joint(smallJointSpace());
  const Kernel kernel = matrixAddKernel(6, 1);
  ExploreOptions writes;
  writes.includeWriteEnergy = true;
  EXPECT_THROW(SearchEvaluator(kernel, joint, writes), ContractViolation);
  ExploreOptions leaky;
  leaky.energy.leakagePjPerBytePerCycle = 0.01;
  EXPECT_THROW(SearchEvaluator(kernel, joint, leaky), ContractViolation);
  try {
    SearchEvaluator(kernel, joint, leaky);
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("leakagePjPerBytePerCycle"),
              std::string::npos)
        << e.what();
  }

  // Single-level spaces fold every point through the one model and
  // accept both.
  DesignSpaceOptions single = smallJointSpace();
  single.l2CapacityBytes.clear();
  const DesignSpace flat(single);
  writes.energy.leakagePjPerBytePerCycle = 0.01;
  SearchEvaluator evaluator(kernel, flat, writes);
  EXPECT_EQ(evaluator.evaluate({flat.enumerate().front()}).size(), 1u);
}

SearchOptions quickSearch(std::uint64_t seed) {
  SearchOptions o;
  o.seed = seed;
  o.populationSize = 16;
  o.generations = 4;
  return o;
}

TEST(Search, SameSeedIsBitIdenticalAcrossRuns) {
  const Kernel kernel = matrixAddKernel(6, 1);
  SearchOptions options = quickSearch(42);
  options.space = smallJointSpace();
  const Explorer explorer{ExploreOptions{}};
  const SearchResult a = explorer.searchPareto(kernel, options);
  const SearchResult b = explorer.searchPareto(kernel, options);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].genome, b.front[i].genome);
    EXPECT_EQ(a.front[i].objectives, b.front[i].objectives);
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.generations, b.generations);
}

TEST(Search, SameSeedIsBitIdenticalAcrossBackends) {
  // The search evaluates LRU and FIFO combos on the analytic engine;
  // every L1-only front point must equal the simulating per-point path
  // (Explorer::evaluate) bit for bit.
  const Kernel kernel = matrixAddKernel(6, 1);
  SearchOptions options = quickSearch(7);
  options.space = smallJointSpace();
  const SearchResult r =
      Explorer{ExploreOptions{}}.searchPareto(kernel, options);
  std::size_t checked = 0;
  for (const SearchPoint& p : r.front) {
    if (p.decoded.l2) continue;
    ExploreOptions pointOptions;
    pointOptions.replacement = p.decoded.replacement;
    pointOptions.writePolicy = p.decoded.writePolicy;
    pointOptions.optimizeLayout = p.decoded.optimizeLayout;
    const Explorer explorer(pointOptions);
    const DesignPoint simulated = explorer.evaluate(
        kernel, explorer.configFor(p.decoded.key), p.decoded.key.tiling);
    EXPECT_EQ(p.objectives[0], simulated.energyNj) << p.decoded.label();
    EXPECT_EQ(p.objectives[1], simulated.cycles) << p.decoded.label();
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Search, DifferentSeedsStayWithinBudget) {
  const Kernel kernel = matrixAddKernel(6, 1);
  const Explorer explorer{ExploreOptions{}};
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SearchOptions options = quickSearch(seed);
    options.space = smallJointSpace();
    options.maxEvaluations = 50;
    options.finishExhaustively = false;
    const SearchResult r = explorer.searchPareto(kernel, options);
    EXPECT_LE(r.evaluations, 50u) << "seed " << seed;
    EXPECT_FALSE(r.front.empty());
    EXPECT_FALSE(r.exact);
  }
}

TEST(Search, FullBudgetIsExactOnASmallSpace) {
  // One quick in-process differential: full budget => mop-up => the
  // front equals the brute-force front bit for bit. The seeded sweep
  // over many spaces lives in search_differential_test.cpp.
  const DiffResult r = replaySearchDiffCase(1, {});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Search, RecorderSeesSearchCountersAndSpans) {
  obs::Recorder recorder;
  NsgaSearch engine(matrixAddKernel(6, 1), DesignSpace(smallJointSpace()),
                    ExploreOptions{}, quickSearch(3), &recorder);
  const SearchResult r = engine.run();
  EXPECT_GT(r.evaluations, 0u);
  const obs::RunReport report = recorder.report();
  EXPECT_EQ(report.counter("search.generations"), r.generations);
  EXPECT_EQ(report.counter("search.evals"), r.evaluations);
  EXPECT_EQ(report.counter("search.cache_hits"), r.cacheHits);
  const obs::PhaseStat* run = report.phase("search.run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count, 1u);
  const obs::PhaseStat* gen = report.phase("search.generation");
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->count, r.generations);
  // The initial population is ranked once; each generation then ranks
  // parents plus offspring, and the survivors keep that ranking.
  const obs::PhaseStat* rank = report.phase("search.rank");
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(rank->count, 1u + r.generations);
  const obs::PhaseStat* batch = report.phase("search.evaluate_batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_GT(batch->count, 0u);
}

/// A tight-layout single-level space of several thousand genomes, far
/// more than a 16 x (8 + 1) search can breed.
DesignSpaceOptions wideSpace() {
  DesignSpaceOptions s;
  s.ranges.onChipBytes = 4096;
  s.ranges.minCacheBytes = 16;
  s.ranges.maxCacheBytes = 4096;
  s.ranges.minLineBytes = 4;
  s.ranges.maxLineBytes = 64;
  s.ranges.maxAssociativity = 8;
  s.ranges.maxTiling = 16;
  s.replacements = {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
                    ReplacementPolicy::TreePLRU};
  s.writePolicies = {WritePolicy::WriteBack, WritePolicy::WriteThrough};
  s.defaultOptimizeLayout = false;
  return s;
}

TEST(Search, OffspringAreNeverRevisitsWhileTheSpaceHasFreshGenomes) {
  // Only the seeded initial population (corner, stratified and random
  // seeds may coincide) can hit the fitness cache: the generations that
  // follow breed genomes the run has not seen, so a longer run adds no
  // hits.
  const Kernel kernel = matrixAddKernel(6, 1);
  ExploreOptions base;
  base.optimizeLayout = false;
  SearchOptions seedOnly = quickSearch(5);
  seedOnly.generations = 0;
  seedOnly.finishExhaustively = false;
  NsgaSearch initial(kernel, DesignSpace(wideSpace()), base, seedOnly);
  const SearchResult start = initial.run();

  SearchOptions options = seedOnly;
  options.generations = 8;
  obs::Recorder recorder;
  NsgaSearch engine(kernel, DesignSpace(wideSpace()), base, options,
                    &recorder);
  const SearchResult r = engine.run();
  ASSERT_GT(r.spaceSize, 10u * options.populationSize *
                             (options.generations + 1));
  EXPECT_EQ(r.generations, options.generations);
  EXPECT_EQ(r.evaluations, std::uint64_t{options.populationSize} *
                               (options.generations + 1) -
                               start.cacheHits);
  EXPECT_EQ(r.cacheHits, start.cacheHits);
  EXPECT_EQ(recorder.report().counter("search.cache_hits"), start.cacheHits);
}

TEST(Search, RepeatRunOnAWarmEvaluatorReplaysABudgetBoundRun) {
  // Warm-cache hits count against the budget like fresh evaluations, so
  // the second run stops where the first did, with the same front.
  ExploreOptions base;
  base.optimizeLayout = false;
  SearchOptions options = quickSearch(13);
  options.generations = 1000;
  options.maxEvaluations = 100;
  options.finishExhaustively = false;
  NsgaSearch engine(matrixAddKernel(6, 1), DesignSpace(wideSpace()), base,
                    options);
  const SearchResult first = engine.run();
  const SearchResult second = engine.run();
  EXPECT_EQ(first.evaluations, 100u);
  EXPECT_LT(first.generations, options.generations);
  EXPECT_EQ(second.evaluations, 0u);
  EXPECT_EQ(second.generations, first.generations);
  ASSERT_EQ(second.front.size(), first.front.size());
  for (std::size_t i = 0; i < first.front.size(); ++i) {
    EXPECT_EQ(second.front[i].genome, first.front[i].genome);
    EXPECT_EQ(second.front[i].objectives, first.front[i].objectives);
  }
}

TEST(Search, BreedsTheWholeSmallSpaceAndStopsWhenNothingIsFresh) {
  // No mop-up: the generations alone visit every genome, then the run
  // stops short of its generation cap with the exact front.
  SearchOptions options = quickSearch(9);
  options.generations = 1000;
  options.finishExhaustively = false;
  NsgaSearch engine(matrixAddKernel(6, 1), DesignSpace(smallJointSpace()),
                    ExploreOptions{}, options);
  const SearchResult r = engine.run();
  ASSERT_LT(r.spaceSize, std::uint64_t{options.populationSize} *
                             (options.generations + 1));
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.evaluations, r.spaceSize);
  EXPECT_LT(r.generations, options.generations);
}

TEST(FrontIo, CsvRoundTripsBitExactly) {
  const Kernel kernel = matrixAddKernel(6, 1);
  SearchOptions options = quickSearch(11);
  options.space = smallJointSpace();
  const SearchResult result =
      Explorer{ExploreOptions{}}.searchPareto(kernel, options);
  ASSERT_FALSE(result.front.empty());
  std::vector<FrontRow> rows;
  for (const SearchPoint& p : result.front) {
    rows.push_back(toFrontRow(result.workload, p));
  }
  std::stringstream io;
  writeFrontCsv(io, rows);
  const std::vector<FrontRow> parsed = readFrontCsv(io);
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].workload, rows[i].workload);
    EXPECT_EQ(parsed[i].cacheBytes, rows[i].cacheBytes);
    EXPECT_EQ(parsed[i].lineBytes, rows[i].lineBytes);
    EXPECT_EQ(parsed[i].associativity, rows[i].associativity);
    EXPECT_EQ(parsed[i].tiling, rows[i].tiling);
    EXPECT_EQ(parsed[i].replacement, rows[i].replacement);
    EXPECT_EQ(parsed[i].writePolicy, rows[i].writePolicy);
    EXPECT_EQ(parsed[i].layout, rows[i].layout);
    EXPECT_EQ(parsed[i].l2Bytes, rows[i].l2Bytes);
    EXPECT_EQ(parsed[i].objectives, rows[i].objectives)
        << "doubles must round-trip bit-exactly (row " << i << ")";
  }
}

TEST(FrontIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW((void)readFrontCsv(empty), std::runtime_error);
  std::stringstream badHeader("nope\n");
  EXPECT_THROW((void)readFrontCsv(badHeader), std::runtime_error);
  std::stringstream shortRow(frontCsvHeader() + "\nmatadd,16,8\n");
  EXPECT_THROW((void)readFrontCsv(shortRow), std::runtime_error);
  std::stringstream badNumber(
      frontCsvHeader() +
      "\nmatadd,16,x,1,1,LRU,write-back,tight,0,1,2,3\n");
  EXPECT_THROW((void)readFrontCsv(badNumber), std::runtime_error);
  std::stringstream badLayout(
      frontCsvHeader() +
      "\nmatadd,16,8,1,1,LRU,write-back,loose,0,1,2,3\n");
  EXPECT_THROW((void)readFrontCsv(badLayout), std::runtime_error);
}

TEST(FrontIo, WorkloadWithCommaAndQuoteRoundTrips) {
  // A kernel file's path is its workload name, and a path may hold
  // either character.
  FrontRow row;
  row.workload = "/tmp/a,b \"fast\".mx";
  row.cacheBytes = 64;
  row.lineBytes = 8;
  row.associativity = 2;
  row.tiling = 4;
  row.replacement = "LRU";
  row.writePolicy = "write-back";
  row.layout = "opt";
  row.l2Bytes = 1024;
  row.objectives = {12.5, 400.0, 0.1};
  std::stringstream io;
  writeFrontCsv(io, {row, row});
  EXPECT_NE(io.str().find("\n\"/tmp/a,b \"\"fast\"\".mx\",64,8,"),
            std::string::npos)
      << io.str();
  const std::vector<FrontRow> parsed = readFrontCsv(io);
  ASSERT_EQ(parsed.size(), 2u);
  for (const FrontRow& back : parsed) {
    EXPECT_EQ(back.workload, row.workload);
    EXPECT_EQ(back.cacheBytes, row.cacheBytes);
    EXPECT_EQ(back.tiling, row.tiling);
    EXPECT_EQ(back.layout, row.layout);
    EXPECT_EQ(back.l2Bytes, row.l2Bytes);
    EXPECT_EQ(back.objectives, row.objectives);
  }
  // Bad quoting is reported with the front reader's own prefix.
  std::stringstream unterminated(
      frontCsvHeader() +
      "\n\"/tmp/a,b.mx,64,8,2,4,LRU,write-back,opt,0,1,2,3\n");
  try {
    (void)readFrontCsv(unterminated);
    ADD_FAILURE() << "unterminated quote accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "front CSV line 2: unterminated quoted field");
  }
}

TEST(SearchDiff, ShrinkStepsReduceOrReportMinimal) {
  DesignSpaceOptions s = smallJointSpace();
  const std::uint64_t before = DesignSpace(s).size();
  bool any = false;
  for (std::size_t step = 0; step < kSearchShrinkSteps; ++step) {
    DesignSpaceOptions trial = s;
    if (!applySearchShrinkStep(trial, step)) continue;
    any = true;
    EXPECT_LT(DesignSpace(trial).size(), before) << "step " << step;
  }
  EXPECT_TRUE(any);
  // Exhaustively applying every step bottoms out at a 1-genome space,
  // and every further step reports no-op.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t step = 0; step < kSearchShrinkSteps; ++step) {
      changed = applySearchShrinkStep(s, step) || changed;
    }
  }
  EXPECT_EQ(DesignSpace(s).size(), 1u);
}

TEST(SearchDiff, GeneratedCasesStayWithinTheCap) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const SearchDiffCase c = makeSearchDiffCase(seed);
    const std::uint64_t size = DesignSpace(c.space).size();
    EXPECT_GE(size, 1u) << "seed " << seed;
    EXPECT_LE(size, 512u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace memx::search
