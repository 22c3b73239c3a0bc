// End-to-end checks of the paper's headline claims (DESIGN.md Section 4).
//
// Every EXPERIMENTS.md verdict is one PaperClaims.* case asserting the
// ordering, crossover or optimum the verdict states, and every listed
// deviation from the paper is one KnownDeviation.* case pinning it as
// measured, so a change that fixes or worsens it is noticed.
// examples/reproduce_paper prints the tables these cases read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/cachesim/miss_classifier.hpp"
#include "memx/core/analytic_model.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/core/explorer.hpp"
#include "memx/core/hierarchy_explorer.hpp"
#include "memx/core/selection.hpp"
#include "memx/core/trace_explorer.hpp"
#include "memx/energy/sram_catalog.hpp"
#include "memx/icache/ifetch_model.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/ref_classes.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/mpeg/composite.hpp"
#include "memx/spm/spm_explorer.hpp"
#include "memx/trace/working_set.hpp"
#include "memx/xform/dependence.hpp"
#include "memx/xform/tiling.hpp"

namespace memx {
namespace {

ExploreOptions paperSweep() {
  ExploreOptions o;
  o.ranges.minCacheBytes = 16;
  o.ranges.maxCacheBytes = 512;
  o.ranges.minLineBytes = 4;
  o.ranges.maxLineBytes = 64;
  o.ranges.sweepAssociativity = false;
  o.ranges.sweepTiling = false;
  return o;
}

CacheConfig dmc(std::uint32_t size, std::uint32_t line,
                std::uint32_t ways = 1) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = ways;
  return c;
}

/// Claim 1 (Figure 1): the energy trend with cache size reverses between
/// cheap and expensive off-chip memory on Compress.
TEST(PaperClaims, Fig1EnergyTrendReversesWithEm) {
  const Kernel k = compressKernel();
  auto energyAt = [&](double em, std::uint32_t size) {
    ExploreOptions o = paperSweep();
    o.energy.emNj = em;
    return Explorer(o).evaluate(k, dmc(size, 4)).energyNj;
  };
  // Expensive 16 Mbit SRAM: bigger cache pays off.
  EXPECT_GT(energyAt(kEmHigh16MbitNj, 16),
            energyAt(kEmHigh16MbitNj, 512));
  // Cheap 2 Mbit SRAM: bigger cache wastes energy.
  EXPECT_LT(energyAt(kEmLow2MbitNj, 16), energyAt(kEmLow2MbitNj, 512));
}

/// Claim (Figure 2 family): miss rate and cycles fall along the paper's
/// C16L4 -> C128L32 diagonal for every benchmark.
TEST(PaperClaims, Fig2DiagonalImprovesMissRateAndCycles) {
  const Explorer ex(paperSweep());
  for (const Kernel& k : paperBenchmarks()) {
    const DesignPoint small = ex.evaluate(k, dmc(16, 4));
    const DesignPoint large = ex.evaluate(k, dmc(128, 32));
    EXPECT_LT(large.missRate, small.missRate) << k.name;
    EXPECT_LT(large.cycles, small.cycles) << k.name;
  }
}

/// Claim 2 (Figure 5 / Figure 9 parentheses): the off-chip assignment
/// removes an order of magnitude of Compress misses.
TEST(PaperClaims, Fig5OffchipAssignmentSlashesMissRate) {
  ExploreOptions opt = paperSweep();
  ExploreOptions unopt = paperSweep();
  unopt.optimizeLayout = false;
  // The paper's unoptimized baseline corresponds to word-granular rows
  // (128 bytes) aliasing at all three cache sizes.
  const Kernel k = compressKernel(32, 4);
  for (const auto& [size, line] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {32, 4}, {64, 8}, {128, 16}}) {
    const double optimized =
        Explorer(opt).evaluate(k, dmc(size, line)).missRate;
    const double unoptimized =
        Explorer(unopt).evaluate(k, dmc(size, line)).missRate;
    EXPECT_LT(optimized, unoptimized)
        << "C" << size << "L" << line;
  }
}

/// Claim 3 (Figures 6-7): tiling the transpose-like kernels is U-shaped
/// in energy with the sweet spot at or below the number of cache lines.
TEST(PaperClaims, Fig6TilingHelpsTransposeThenHurts) {
  ExploreOptions o = paperSweep();
  const Explorer ex(o);
  const Kernel k = transposeKernel(32);
  const CacheConfig cache = dmc(128, 8);  // 16 lines
  const DesignPoint untiled = ex.evaluate(k, cache, 1);
  double best = untiled.missRate;
  for (const std::uint32_t b : {2u, 4u, 8u}) {
    best = std::min(best, ex.evaluate(k, cache, b).missRate);
  }
  EXPECT_LT(best, untiled.missRate);
}

/// Claim (Section 4.3): associativity lowers the miss rate of small
/// caches on conflict-prone workloads.
TEST(PaperClaims, Sec43AssociativityLowersMissRateSmallCache) {
  ExploreOptions o = paperSweep();
  o.optimizeLayout = false;  // leave conflicts for associativity to fix
  const Explorer ex(o);
  const Kernel k = dequantKernel();
  CacheConfig c1 = dmc(64, 8);
  CacheConfig c4 = dmc(64, 8);
  c4.associativity = 4;
  EXPECT_LT(ex.evaluate(k, c4).missRate, ex.evaluate(k, c1).missRate);
}

/// Claim (Figure 4), restated as measured: bounded selection picks
/// different corners, the global min-energy point small and the
/// min-cycles point large. Those two corners are the whole Pareto front,
/// so no bound forces a compromise: a cycle bound midway between them
/// (5,893 cycles) still selects the min-cycles C128L64.
TEST(PaperClaims, Fig4BoundedSelectionsDiffer) {
  const Explorer ex(paperSweep());
  const ExplorationResult r = ex.explore(compressKernel());
  const auto minE = minEnergyPoint(r.points);
  const auto minC = minCyclePoint(r.points);
  ASSERT_TRUE(minE && minC);
  EXPECT_LT(minE->key.cacheBytes, minC->key.cacheBytes);
  std::vector<std::string> front;
  for (const DesignPoint& p : paretoFront(r.points)) {
    front.push_back(p.label());
  }
  EXPECT_EQ(front, (std::vector<std::string>{"C128L64", "C64L32"}));
  const double bound = (minE->cycles + minC->cycles) / 2;
  const auto bounded = minEnergyPoint(r.points, bound);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->label(), "C128L64");
}

/// Tiling must never change how much work is done, only its order.
TEST(PaperClaims, TilingPreservesAccessCount) {
  const Explorer ex(paperSweep());
  const Kernel k = sorKernel();
  const DesignPoint a = ex.evaluate(k, dmc(64, 8), 1);
  const DesignPoint b = ex.evaluate(k, dmc(64, 8), 4);
  EXPECT_EQ(a.accesses, b.accesses);
}


// ---------------------------------------------------------------------
// One case per EXPERIMENTS.md verdict, in its order. Unless a case says
// otherwise it reads the tables at Em = 4.95 nJ with the Section-4.1
// layout applied (ExploreOptions{}), as examples/reproduce_paper prints
// them.

double relDiff(double a, double b) { return std::abs(a - b) / std::abs(b); }

double energyAt(double emNj, const Kernel& k, const CacheConfig& c) {
  ExploreOptions o;
  o.energy.emNj = emNj;
  return Explorer(o).evaluate(k, c).energyNj;
}

/// Figure 1a: with expensive memory, energy falls from C16 to C64, where
/// Compress reaches its compulsory floor, and rises past it.
TEST(PaperClaims, Fig1ExpensiveMemoryEnergyBottomsOutAtC64) {
  const Kernel k = compressKernel();
  std::uint32_t best = 0;
  double bestNj = 0.0;
  for (const std::uint32_t size : {16u, 32u, 64u, 128u, 256u, 512u}) {
    const double nj = energyAt(kEmHigh16MbitNj, k, dmc(size, 4));
    if (best == 0 || nj < bestNj) {
      best = size;
      bestNj = nj;
    }
  }
  EXPECT_EQ(best, 64u);
}

/// Figure 1b: with cheap memory, Compress energy rises with every
/// cache-size step (C16L4 6,180 nJ -> C512L4 41,900 nJ).
TEST(PaperClaims, Fig1CheapMemoryEnergyRisesWithEveryStep) {
  const Kernel k = compressKernel();
  double previous = 0.0;
  for (const std::uint32_t size : {16u, 32u, 64u, 128u, 256u, 512u}) {
    const double nj = energyAt(kEmLow2MbitNj, k, dmc(size, 4));
    EXPECT_GT(nj, previous) << "C" << size;
    previous = nj;
  }
}

constexpr std::pair<std::uint32_t, std::uint32_t> kDiagonal[] = {
    {16, 4}, {32, 8}, {64, 16}, {128, 32}};

/// Figure 2: miss rate and cycles fall at every step of the diagonal.
TEST(PaperClaims, Fig2DiagonalMissRateAndCyclesFallEveryStep) {
  const Explorer ex{ExploreOptions{}};
  for (const Kernel& k : paperBenchmarks()) {
    DesignPoint previous = ex.evaluate(k, dmc(16, 4));
    for (const auto& [size, line] : std::span(kDiagonal).subspan(1)) {
      const DesignPoint p = ex.evaluate(k, dmc(size, line));
      EXPECT_LT(p.missRate, previous.missRate) << k.name << " C" << size;
      EXPECT_LT(p.cycles, previous.cycles) << k.name << " C" << size;
      previous = p;
    }
  }
}

/// Figure 2, the paper's central claim: energy is not monotone along the
/// diagonal. Compress rises, falls, rises; Dequant rises at every step.
TEST(PaperClaims, Fig2DiagonalEnergyIsNotMonotone) {
  const Explorer ex{ExploreOptions{}};
  auto energies = [&](const Kernel& k) {
    std::vector<double> nj;
    for (const auto& [size, line] : kDiagonal) {
      nj.push_back(ex.evaluate(k, dmc(size, line)).energyNj);
    }
    return nj;
  };
  const std::vector<double> compress = energies(compressKernel());
  EXPECT_GT(compress[1], compress[0]);
  EXPECT_LT(compress[2], compress[1]);
  EXPECT_GT(compress[3], compress[2]);
  const std::vector<double> dequant = energies(dequantKernel());
  EXPECT_TRUE(std::is_sorted(dequant.begin(), dequant.end()));
  EXPECT_GT(dequant.back(), dequant.front());
}

/// Figure 2: PDE's five reference classes first fit conflict-free at
/// C128L32, a Section-3 minimum-size cliff (0.788 -> 0.026).
TEST(PaperClaims, Fig2PdeMissRateCliffAtC128L32) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = pdeKernel();
  EXPECT_GT(ex.evaluate(k, dmc(64, 16)).missRate, 0.7);
  EXPECT_LT(ex.evaluate(k, dmc(128, 32)).missRate, 0.05);
}

/// Figure 3: inside the >= 4-line grid, Compress cycles never rise with
/// the cache size, fall with the line size up to L32, and bottom out at
/// L32 from C128 up; L64 is slightly slower than L32.
TEST(PaperClaims, Fig3CyclesFallTowardLargeCachesDownToL32) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = compressKernel();
  auto cycles = [&](std::uint32_t c, std::uint32_t l) {
    return ex.evaluate(k, dmc(c, l)).cycles;
  };
  for (const std::uint32_t line : {4u, 8u, 16u, 32u, 64u}) {
    for (std::uint32_t size = 4 * line * 2; size <= 512; size *= 2) {
      EXPECT_LE(cycles(size, line), cycles(size / 2, line))
          << "C" << size << "L" << line;
    }
  }
  for (const std::uint32_t line : {8u, 16u, 32u}) {
    EXPECT_LT(cycles(512, line), cycles(512, line / 2)) << "L" << line;
  }
  EXPECT_EQ(cycles(128, 32), cycles(512, 32));
  EXPECT_GT(cycles(256, 64), cycles(256, 32));
  EXPECT_GT(cycles(512, 64), cycles(512, 32));
}

/// Figure 4: the minimum-energy Compress cache is small (C64L32), the
/// minimum-time one large-lined (C128L64, two lines, outside Figure 3's
/// >= 4-line grid) — the two objectives land on different corners.
TEST(PaperClaims, Fig4MinEnergyC64L32MinTimeC128L64) {
  const ExplorationResult r =
      Explorer(paperSweep()).explore(compressKernel());
  EXPECT_EQ(minEnergyPoint(r.points)->label(), "C64L32");
  EXPECT_EQ(minCyclePoint(r.points)->label(), "C128L64");
}

/// Figure 4's printed walkthrough bounds (cycles <= 1.6x the minimum,
/// energy <= 1.5x the minimum) are loose enough to leave both optima in
/// place; tighter ones only swap between the two
/// (PaperClaims.Fig4BoundedSelectionsDiffer).
TEST(PaperClaims, Fig4WalkthroughBoundsKeepBothOptima) {
  const ExplorationResult r =
      Explorer(paperSweep()).explore(compressKernel());
  const auto minE = minEnergyPoint(r.points);
  const auto minC = minCyclePoint(r.points);
  EXPECT_EQ(minEnergyPoint(r.points, 1.6 * minC->cycles)->key, minE->key);
  EXPECT_EQ(minCyclePoint(r.points, 1.5 * minE->energyNj)->key, minC->key);
}

/// Figure 4 / ablation_sensitivity: charging Em per 16-bit word (the
/// Cypress part's width) moves the selection to the paper's exact
/// C16L4 corner.
TEST(PaperClaims, Fig4SixteenBitMemoryPicksPaperC16L4) {
  ExploreOptions o = paperSweep();
  o.energy.mainBytesPerAccess = 2;
  const ExplorationResult r = Explorer(o).explore(compressKernel());
  EXPECT_EQ(minEnergyPoint(r.points)->label(), "C16L4");
}

/// Figure 5: every miss the assignment removes is a conflict miss, the
/// optimized runs have none left, and the gain grows with the cache
/// (2.0x, 3.9x, 7.8x).
TEST(PaperClaims, Fig5AssignmentRemovesOnlyConflictMisses) {
  const Kernel k = compressKernel(32, 4);
  double previousGain = 1.0;
  for (const auto& [size, line] :
       {std::pair{32u, 4u}, std::pair{64u, 8u}, std::pair{128u, 16u}}) {
    const CacheConfig cache = dmc(size, line);
    const MissBreakdown unopt =
        classifyMisses(cache, generateTrace(k, sequentialLayout(k)));
    const MissBreakdown opt = classifyMisses(
        cache, generateTrace(k, assignConflictFree(k, cache).layout));
    EXPECT_EQ(opt.conflict, 0u) << cache.label();
    EXPECT_EQ(unopt.misses() - opt.misses(), unopt.conflict)
        << cache.label();
    const double gain = unopt.missRate() / opt.missRate();
    EXPECT_GT(gain, previousGain * 1.5) << cache.label();
    previousGain = gain;
  }
}

std::vector<double> missRatesOverTiling(const Kernel& k,
                                        const CacheConfig& cache) {
  const Explorer ex{ExploreOptions{}};
  std::vector<double> rates;
  for (const std::uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
    rates.push_back(ex.evaluate(k, cache, b).missRate);
  }
  return rates;
}

std::uint32_t bestTiling(const std::vector<double>& rates) {
  const auto best = std::min_element(rates.begin(), rates.end());
  return 1u << (best - rates.begin());
}

/// Figure 6 (Example 3): at C64L8, transpose drops from 0.781 to 0.578
/// at B = 2 and returns to the untiled rate once the tile working set
/// exceeds the 8 cache lines.
TEST(PaperClaims, Fig6TransposeBestAtB2UntiledAgainFromB8) {
  const std::vector<double> r =
      missRatesOverTiling(transposeKernel(32), dmc(64, 8));
  EXPECT_EQ(bestTiling(r), 2u);
  EXPECT_LT(r[1], 0.8 * r[0]);
  EXPECT_DOUBLE_EQ(r[3], r[0]);
  EXPECT_DOUBLE_EQ(r[4], r[0]);
}

/// Figure 6, restated as measured: Compress and SOR are not U-shaped at
/// C64L8. Compress is best untiled (0.027) and SOR best at B = 16
/// (0.035); the paper puts both optima at B = 8.
TEST(PaperClaims, Fig6CompressBestUntiledSorBestAtB16) {
  EXPECT_EQ(bestTiling(missRatesOverTiling(compressKernel(), dmc(64, 8))),
            1u);
  EXPECT_EQ(bestTiling(missRatesOverTiling(sorKernel(), dmc(64, 8))), 16u);
}

/// Figure 7: at C64L8 associativity only costs Compress energy (the
/// layout already removed its conflicts), and Dequant is flat in it.
TEST(PaperClaims, Fig7CompressEnergyRisesWithAssocDequantFlat) {
  const Explorer ex{ExploreOptions{}};
  const Kernel compress = compressKernel();
  const Kernel dequant = dequantKernel();
  const double compressSa1 = ex.evaluate(compress, dmc(64, 8)).energyNj;
  const double dequantSa1 = ex.evaluate(dequant, dmc(64, 8)).energyNj;
  for (const std::uint32_t s : {2u, 4u, 8u}) {
    EXPECT_GT(ex.evaluate(compress, dmc(64, 8, s)).energyNj,
              1.2 * compressSa1)
        << "SA" << s;
    EXPECT_LT(relDiff(ex.evaluate(dequant, dmc(64, 8, s)).energyNj,
                      dequantSa1),
              0.005)
        << "SA" << s;
  }
}

/// Figure 8: at C64L8, two ways rescue the conflict-prone MatMul (miss
/// rate 0.358 -> 0.260, cycles 1.82M -> 1.37M) ...
TEST(PaperClaims, Fig8TwoWaysRescueMatMulAtC64L8) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = matMulKernel();
  const DesignPoint sa1 = ex.evaluate(k, dmc(64, 8));
  const DesignPoint sa2 = ex.evaluate(k, dmc(64, 8, 2));
  EXPECT_LT(sa2.missRate, sa1.missRate - 0.09);
  EXPECT_LT(sa2.cycles, 0.8 * sa1.cycles);
}

/// ... while on the kernels whose conflicts the layout already removed,
/// associativity only adds hit time.
TEST(PaperClaims, Fig8AssocOnlyAddsHitTimeAfterLayout) {
  const Explorer ex{ExploreOptions{}};
  for (const Kernel& k :
       {compressKernel(), pdeKernel(), sorKernel(), dequantKernel()}) {
    EXPECT_GT(ex.evaluate(k, dmc(64, 8, 2)).cycles,
              ex.evaluate(k, dmc(64, 8)).cycles)
        << k.name;
  }
}

/// Figure 8 at C1024L32, restated as measured: cycles rise with every
/// associativity step and energy stays flat for every kernel but
/// MatMul, whose cycles fall from 1.39M to 298k at SA2 and whose energy
/// falls too. The old "worse for every kernel" does not hold.
TEST(PaperClaims, Fig8AtC1024L32OnlyMatMulGainsFromAssoc) {
  const Explorer ex{ExploreOptions{}};
  for (const Kernel& k :
       {compressKernel(), pdeKernel(), sorKernel(), dequantKernel()}) {
    DesignPoint previous = ex.evaluate(k, dmc(1024, 32));
    for (const std::uint32_t s : {2u, 4u, 8u}) {
      const DesignPoint p = ex.evaluate(k, dmc(1024, 32, s));
      EXPECT_GT(p.cycles, previous.cycles) << k.name << " SA" << s;
      EXPECT_LT(relDiff(p.energyNj, previous.energyNj), 0.005)
          << k.name << " SA" << s;
      previous = p;
    }
  }
  const Kernel matmul = matMulKernel();
  const DesignPoint sa1 = ex.evaluate(matmul, dmc(1024, 32));
  const DesignPoint sa2 = ex.evaluate(matmul, dmc(1024, 32, 2));
  EXPECT_LT(sa2.cycles, 0.25 * sa1.cycles);
  EXPECT_LT(sa2.energyNj, 0.5 * sa1.energyNj);
}

std::vector<Kernel> wordArrayKernels() {
  return {compressKernel(32, 4), matMulKernel(32, 4), pdeKernel(33, 4),
          sorKernel(33, 4), dequantKernel(32, 4)};
}

/// Figure 9 (word-array view): untiled and direct-mapped, the
/// unoptimized layout misses 0.64-1.0 of the time (PDE and Dequant
/// exactly 1.0), 1.45-3.9x as often as the optimized one.
TEST(PaperClaims, Fig9OptimizedLayoutWinsAtSa1Ts1) {
  const Explorer opt{ExploreOptions{}};
  ExploreOptions uo;
  uo.optimizeLayout = false;
  const Explorer unopt(uo);
  for (const Kernel& k : wordArrayKernels()) {
    const double o = opt.evaluate(k, dmc(64, 8)).missRate;
    const double u = unopt.evaluate(k, dmc(64, 8)).missRate;
    EXPECT_GE(u, 0.64) << k.name;
    EXPECT_GE(u / o, 1.4) << k.name;
    EXPECT_LE(u / o, 4.0) << k.name;
  }
  EXPECT_EQ(unopt.evaluate(pdeKernel(33, 4), dmc(64, 8)).missRate, 1.0);
  EXPECT_EQ(unopt.evaluate(dequantKernel(32, 4), dmc(64, 8)).missRate,
            1.0);
}

/// Figure 9, restated as measured: associativity and tiling do move the
/// unoptimized miss rates. At SA2 TS4 Compress's falls from 0.806 to
/// 0.258, and at SA8 TS8 every kernel's two layouts agree within 0.02.
TEST(PaperClaims, Fig9AssocAndTilingAbsorbTheLayoutConflicts) {
  const Explorer opt{ExploreOptions{}};
  ExploreOptions uo;
  uo.optimizeLayout = false;
  const Explorer unopt(uo);
  const Kernel compress = compressKernel(32, 4);
  EXPECT_LT(unopt.evaluate(compress, dmc(64, 8, 2), 4).missRate,
            unopt.evaluate(compress, dmc(64, 8)).missRate / 3);
  for (const Kernel& k : wordArrayKernels()) {
    EXPECT_NEAR(opt.evaluate(k, dmc(64, 8, 8), 8).missRate,
                unopt.evaluate(k, dmc(64, 8, 8), 8).missRate, 0.02)
        << k.name;
  }
}

/// The Section-5 MPEG sweep (C <= 512, L <= 16), shared by the cases
/// that read it when they run in one process.
const CompositeProgram::Result& mpegSweep() {
  static const CompositeProgram::Result result = [] {
    ExploreOptions o;
    o.ranges.maxCacheBytes = 512;
    o.ranges.maxLineBytes = 16;
    return mpegDecoder().explore(Explorer(o));
  }();
  return result;
}

/// Figure 10: the nine MPEG kernels spread over the design space.
/// Streaming kernels pick 16-byte caches, the table-reuse kernels
/// (Dequant, Compute) 64 bytes, IDCT 128 bytes with 8 ways — at least
/// five distinct optima.
TEST(PaperClaims, Fig10MpegKernelOptimaAreDiverse) {
  std::set<ConfigKey> distinct;
  for (const ExplorationResult& r : mpegSweep().perKernel) {
    const ConfigKey best = minEnergyPoint(r.points)->key;
    distinct.insert(best);
    const std::string& name = r.workload;
    if (name == "Plus" || name == "Store" || name == "Addr" ||
        name == "Display") {
      EXPECT_EQ(best.cacheBytes, 16u) << name;
    } else if (name == "Dequant" || name == "Compute") {
      EXPECT_EQ(best.cacheBytes, 64u) << name;
    } else if (name == "IDCT") {
      EXPECT_EQ(best.cacheBytes, 128u);
      EXPECT_EQ(best.associativity, 8u);
    }
  }
  EXPECT_GE(distinct.size(), 5u);
}

/// Section 5: the whole-program optima have the paper's cache and line
/// sizes — minimum energy C64 L4, minimum cycles C512 L16 — the two
/// objectives pick different configurations, the faster one costs more
/// energy, and no per-kernel optimum equals the composite's.
TEST(PaperClaims, Sec5MpegOptimaMatchPaperCacheAndLineSizes) {
  const CompositeProgram::Result& mpeg = mpegSweep();
  const auto minE = minEnergyPoint(mpeg.combined.points);
  const auto minC = minCyclePoint(mpeg.combined.points);
  EXPECT_EQ(minE->key.cacheBytes, 64u);
  EXPECT_EQ(minE->key.lineBytes, 4u);
  EXPECT_EQ(minC->key.cacheBytes, 512u);
  EXPECT_EQ(minC->key.lineBytes, 16u);
  EXPECT_NE(minE->key, minC->key);
  EXPECT_GT(minC->energyNj, 1.5 * minE->energyNj);
  for (const ExplorationResult& r : mpeg.perKernel) {
    EXPECT_NE(minEnergyPoint(r.points)->key, minE->key) << r.workload;
  }
}

/// Section 3: Compress has two reference classes of two lines each, so
/// its minimum cache is 4L at every line size.
TEST(PaperClaims, Sec3CompressNeedsFourLines) {
  const Kernel k = compressKernel();
  EXPECT_EQ(analyzeReferences(k).groups.size(), 2u);
  for (const std::uint32_t line : {4u, 8u, 16u, 32u}) {
    EXPECT_EQ(minCacheLines(k, line), 4u) << "L" << line;
    EXPECT_EQ(minCacheSizeBytes(k, line), 4u * line) << "L" << line;
  }
}

/// ablation_addr_encoding: Gray coding saves 1.19x of the bus switching
/// on the stride-dominated Compress and SOR, yet total energy does not
/// move, since E_dec is a minor term (alpha = 0.001).
TEST(PaperClaims, GrayCodingSavesSwitchingNotEnergy) {
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    const double gray = measureAddrActivity(trace, AddressEncoding::Gray);
    const double bin = measureAddrActivity(trace, AddressEncoding::Binary);
    if (k.name == "compress" || k.name == "sor") {
      EXPECT_GT(bin / gray, 1.15) << k.name;
    }
    const CacheEnergyModel mGray(dmc(64, 8), EnergyParams{}, gray);
    const CacheEnergyModel mBin(dmc(64, 8), EnergyParams{}, bin);
    EXPECT_LT(relDiff(mBin.totalNj(k.referenceCount(), 0.1),
                      mGray.totalNj(k.referenceCount(), 0.1)),
              1e-3)
        << k.name;
  }
}

double simulatedMissRate(const Trace& trace, CacheConfig c,
                         ReplacementPolicy policy) {
  c.replacement = policy;
  return simulateTrace(c, trace).missRate();
}

/// ablation_replacement: at 4-way C128L8, LRU <= FIFO <= random on every
/// kernel (MatMul 0.261 / 0.344 / 0.345).
TEST(PaperClaims, ReplacementLruNoWorseThanFifoNoWorseThanRandom) {
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    const double lru =
        simulatedMissRate(trace, dmc(128, 8, 4), ReplacementPolicy::LRU);
    const double fifo =
        simulatedMissRate(trace, dmc(128, 8, 4), ReplacementPolicy::FIFO);
    const double random =
        simulatedMissRate(trace, dmc(128, 8, 4), ReplacementPolicy::Random);
    EXPECT_LE(lru, fifo) << k.name;
    EXPECT_LE(fifo, random) << k.name;
  }
}

/// ablation_write_policy: at C64L8 a write-through cache sends every
/// store off chip, while write-back sends 12-13% of them on Compress and
/// SOR but nearly all (>= 99%) on PDE and Dequant; read line fills
/// outnumber write-backs on every kernel.
TEST(PaperClaims, WriteBackTrafficDependsOnStoreReuse) {
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    CacheConfig wb = dmc(64, 8);
    wb.writePolicy = WritePolicy::WriteBack;
    const CacheStats sWb = simulateTrace(wb, trace);
    CacheConfig wt = dmc(64, 8);
    wt.writePolicy = WritePolicy::WriteThrough;
    EXPECT_EQ(simulateTrace(wt, trace).memWrites, sWb.writes) << k.name;
    EXPECT_GT(sWb.lineFills, sWb.writebacks) << k.name;
    const double share = static_cast<double>(sWb.writebacks) /
                         static_cast<double>(sWb.writes);
    if (k.name == "compress" || k.name == "sor") {
      EXPECT_LT(share, 0.15) << k.name;
    } else if (k.name == "pde" || k.name == "dequant") {
      EXPECT_GT(share, 0.99) << k.name;
    }
  }
}

/// ablation_analytic_vs_sim: the paper's closed form tracks the
/// simulator within 0.02 on the streaming kernels and misses MatMul's
/// temporal reuse by more than 0.6.
TEST(PaperClaims, AnalyticModelTracksStreamingKernelsNotMatMul) {
  for (const Kernel& k : paperBenchmarks()) {
    for (const auto& [size, line] :
         {std::pair{64u, 8u}, std::pair{256u, 16u}}) {
      const CacheConfig cache = dmc(size, line);
      const AssignmentPlan plan = assignConflictFree(k, cache);
      const double error = std::abs(
          analyticMissRate(k, cache, plan.complete) -
          simulateTrace(cache, generateTrace(k, plan.layout)).missRate());
      if (k.name == "matmul") {
        EXPECT_GT(error, 0.6) << cache.label();
      } else if (k.name != "compress") {
        EXPECT_LE(error, 0.02) << k.name << ' ' << cache.label();
      }
    }
  }
}

/// ablation_interchange (Example 3): interchanging transpose's loops
/// only swaps which array streams, while tiling removes misses.
TEST(PaperClaims, InterchangeCannotFixTransposeTilingCan) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = transposeKernel(32);
  const double original = ex.evaluate(k, dmc(128, 8)).missRate;
  EXPECT_DOUBLE_EQ(ex.evaluate(interchange(k, 0, 1), dmc(128, 8)).missRate,
                   original);
  EXPECT_LT(ex.evaluate(k, dmc(128, 8), 2).missRate, 0.75 * original);
}

/// ext_icache: the minimum-energy I-cache holds the loop body, C128 for
/// the 100-112-byte bodies, where nearly every fetch hits. Dequant's
/// 76-byte body is the exception: C64 misses 1.3% of its fetches and
/// still costs less energy.
TEST(PaperClaims, ICacheMinEnergyHoldsTheLoopBody) {
  const InstructionLayout layout;
  ExploreOptions o;
  o.ranges.minCacheBytes = 32;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 2;
  for (const Kernel& k : paperBenchmarks()) {
    const ExplorationResult r =
        exploreTrace("icache-" + k.name, generateIFetchTrace(k, layout), o);
    const auto best = minEnergyPoint(r.points);
    if (k.name == "dequant") {
      EXPECT_EQ(layout.codeBytes(k), 76u);
      EXPECT_EQ(best->key.cacheBytes, 64u);
      EXPECT_GT(best->missRate, 0.01);
    } else {
      EXPECT_EQ(best->key.cacheBytes, 128u) << k.name;
      EXPECT_GE(best->key.cacheBytes, layout.codeBytes(k)) << k.name;
      EXPECT_LT(best->missRate, 0.002) << k.name;
    }
  }
}

/// ext_hierarchy: a C64L8 L1 over a 256-byte L2 fetches no more lines
/// from off chip than the 256-byte cache alone (SOR 68, vs 1,810 for the
/// L1 alone).
TEST(PaperClaims, L1L2StackKeepsLargeCacheTraffic) {
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    CacheSim big(dmc(256, 16));
    big.run(trace);
    ConfigBank l2(SweepBackend::MultiSim, {dmc(256, 16, 2)});
    l2.run(filterL1(dmc(64, 8), trace).l2Stream);
    EXPECT_LE(l2.stats(0).lineFills, big.stats().lineFills) << k.name;
  }
}

/// ext_scratchpad: pinning the MPEG quantizer table in a 128-byte
/// scratchpad beats every split whose scratchpad holds nothing
/// (30,200 nJ vs 43,100 nJ and more); the paper's no-reuse Dequant puts
/// no array in the scratchpad at any split.
TEST(PaperClaims, ScratchpadPinsTheMpegQuantizerTable) {
  const std::vector<SplitResult> mpeg =
      exploreBudgetSplits(mpegDequantKernel(), 512, 8);
  const auto best = std::min_element(
      mpeg.begin(), mpeg.end(), [](const SplitResult& a,
                                   const SplitResult& b) {
        return a.energyNj < b.energyNj;
      });
  EXPECT_EQ(best->spmArrays, std::vector<std::string>{"qtab"});
  EXPECT_EQ(best->spmBytes, 128u);
  for (const SplitResult& r : exploreBudgetSplits(dequantKernel(), 512, 8)) {
    EXPECT_TRUE(r.spmArrays.empty()) << r.label();
  }
}

/// ext_working_set: for Compress and SOR the Mattson 90%-hit knee is
/// the Section-3 analytical minimum, 4 lines by both derivations.
TEST(PaperClaims, WorkingSetKneeEqualsSection3Minimum) {
  for (const Kernel& k : {compressKernel(), sorKernel()}) {
    const ReuseProfile profile(generateTrace(k), 8);
    EXPECT_EQ(profile.linesForHitRate(0.9), 4u) << k.name;
    EXPECT_EQ(minCacheLines(k, 8), 4u) << k.name;
  }
}

/// ablation_tag_energy: modeling the tag array shifts energies by 8-20%
/// but leaves the selected configuration alone.
TEST(PaperClaims, TagEnergyShiftsEnergyNotSelection) {
  ExploreOptions off;
  off.ranges.sweepAssociativity = false;
  off.ranges.sweepTiling = false;
  ExploreOptions on = off;
  on.energy.includeTagArray = true;
  const Kernel k = compressKernel();
  const Explorer exOff(off);
  const Explorer exOn(on);
  for (const auto& [size, line] :
       {std::pair{16u, 4u}, std::pair{64u, 8u}, std::pair{256u, 16u},
        std::pair{1024u, 32u}}) {
    const double shift = relDiff(exOn.evaluate(k, dmc(size, line)).energyNj,
                                 exOff.evaluate(k, dmc(size, line)).energyNj);
    EXPECT_GT(shift, 0.08) << "C" << size;
    EXPECT_LT(shift, 0.20) << "C" << size;
  }
  EXPECT_EQ(minEnergyPoint(exOn.explore(k).points)->key,
            minEnergyPoint(exOff.explore(k).points)->key);
}

/// ablation_sensitivity: the minimum-energy Compress cache flips from
/// C16L4 to C64L32 between Em = 2.31 and Em = 4.95 nJ and does not move
/// with the data-bus activity.
TEST(PaperClaims, SelectionFlipsWithEmNotWithActivity) {
  const Kernel k = compressKernel();
  auto selected = [&](double EnergyParams::*param, double value) {
    ExploreOptions o = paperSweep();
    o.energy.*param = value;
    return minEnergyPoint(Explorer(o).explore(k).points)->label();
  };
  EXPECT_EQ(selected(&EnergyParams::emNj, kEmLow2MbitNj), "C16L4");
  EXPECT_EQ(selected(&EnergyParams::emNj, kEmCypress2MbitNj), "C64L32");
  const std::string atLowest = selected(&EnergyParams::dataActivity, 0.1);
  for (const double activity : {0.25, 0.5, 0.75, 1.0}) {
    EXPECT_EQ(selected(&EnergyParams::dataActivity, activity), atLowest)
        << activity;
  }
}

/// ablation_leakage, restated as measured: the 2001 journal version's
/// static term makes large caches pay rent for idle capacity (C512L4
/// 18x at 100 pJ/byte/cycle), but Compress's optimum stays C64L32 at
/// every coefficient; it does not shift.
TEST(PaperClaims, LeakageChargesLargeCachesKeepsTheOptimum) {
  const Kernel k = compressKernel();
  std::vector<double> c512;
  for (const double leak : {0.0, 1.0, 10.0, 100.0}) {
    ExploreOptions o = paperSweep();
    o.energy.leakagePjPerBytePerCycle = leak;
    const ExplorationResult r = Explorer(o).explore(k);
    EXPECT_EQ(minEnergyPoint(r.points)->label(), "C64L32") << leak;
    c512.push_back(r.at(ConfigKey{512, 4, 1, 1}).energyNj);
  }
  EXPECT_GT(c512.back(), 15.0 * c512.front());
}

/// ablation_plru, restated as measured: at C128L8 tree-PLRU stays within
/// 0.01 of true LRU at 4 ways, but at 8 ways it trails by up to 0.02
/// (PDE 0.0991 vs 0.0807). FIFO never beats LRU and random always
/// loses to it.
TEST(PaperClaims, TreePlruTracksLruCloserAtFourWaysThanEight) {
  for (const std::uint32_t ways : {4u, 8u}) {
    for (const Kernel& k : paperBenchmarks()) {
      const Trace trace = generateTrace(k);
      const CacheConfig c = dmc(128, 8, ways);
      const double lru = simulatedMissRate(trace, c, ReplacementPolicy::LRU);
      EXPECT_NEAR(simulatedMissRate(trace, c, ReplacementPolicy::TreePLRU),
                  lru, ways == 4 ? 0.01 : 0.02)
          << k.name << ' ' << ways;
      EXPECT_GE(simulatedMissRate(trace, c, ReplacementPolicy::FIFO), lru)
          << k.name << ' ' << ways;
      EXPECT_GT(simulatedMissRate(trace, c, ReplacementPolicy::Random), lru)
          << k.name << ' ' << ways;
    }
  }
  const Trace pde = generateTrace(pdeKernel());
  EXPECT_GT(simulatedMissRate(pde, dmc(128, 8, 8),
                              ReplacementPolicy::TreePLRU) -
                simulatedMissRate(pde, dmc(128, 8, 8),
                                  ReplacementPolicy::LRU),
            0.015);
}

/// ablation_write_energy: at C64L8 store traffic adds 6-46% to the
/// read-only energy under write-back and up to 190% under write-through.
TEST(PaperClaims, WriteEnergyAddsAModestShareUnderWriteBack) {
  double worstWriteThrough = 0.0;
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    for (const WritePolicy wp :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      CacheConfig c = dmc(64, 8);
      c.writePolicy = wp;
      const CacheStats stats = simulateTrace(c, trace);
      const CacheEnergyModel model(c, EnergyParams{},
                                   measureAddrActivity(trace));
      const double added =
          relDiff(model.totalIncludingWritesNj(stats), model.totalNj(stats));
      if (wp == WritePolicy::WriteBack) {
        EXPECT_GT(added, 0.06) << k.name;
        EXPECT_LT(added, 0.46) << k.name;
      } else {
        worstWriteThrough = std::max(worstWriteThrough, added);
      }
    }
  }
  EXPECT_NEAR(worstWriteThrough, 1.90, 0.01);
}

/// ext_l2_explore: the best swept (L1, L2) stack beats the single-level
/// C...L16 cache of the same total bytes on energy for every kernel with
/// reuse (Compress 11,200 vs 24,900 nJ); for streaming Dequant it does
/// not.
TEST(PaperClaims, L1L2StackBeatsEqualByteFlatCacheWhenReuseExists) {
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    const auto points = exploreHierarchy(trace, HierarchyRanges{});
    const HierarchyPoint& best = *std::min_element(
        points.begin(), points.end(),
        [](const HierarchyPoint& a, const HierarchyPoint& b) {
          return a.energyNj < b.energyNj;
        });
    std::uint32_t flatSize = 1;
    while (flatSize * 2 <= best.l1.sizeBytes + best.l2.sizeBytes) {
      flatSize *= 2;
    }
    const CacheConfig flat = dmc(flatSize, 16);
    const double flatNj =
        CacheEnergyModel(flat, EnergyParams{}, measureAddrActivity(trace))
            .totalNj(simulateTrace(flat, trace));
    if (k.name == "dequant") {
      EXPECT_GE(best.energyNj, flatNj);
    } else {
      EXPECT_LT(best.energyNj, flatNj) << k.name;
    }
  }
}

/// legality: the wavefront's (1, -1) dependence makes rectangular
/// tiling illegal; every paper kernel is legal to tile as written.
TEST(PaperClaims, WavefrontIsNotTileablePaperKernelsAre) {
  Kernel k;
  k.name = "wavefront";
  k.arrays = {ArrayDecl{"a", {32, 32}, 1}};
  k.nest = LoopNest::rectangular({{1, 30}, {0, 30}});
  k.body = {
      makeAccess(0, {AffineExpr::var(0).plusConstant(-1),
                     AffineExpr::var(1).plusConstant(+1)}),
      makeAccess(0, {AffineExpr::var(0), AffineExpr::var(1)},
                 AccessType::Write),
  };
  k.validate();
  EXPECT_FALSE(tilingIsLegal(k));
  for (const Kernel& b : paperBenchmarks()) {
    EXPECT_TRUE(tilingIsLegal(b)) << b.name;
  }
}

// ---------------------------------------------------------------------
// EXPERIMENTS.md's deviations from the paper, pinned as measured.

/// Deviation 1: absolute numbers differ from the paper's by constant
/// factors (element granularity, and we count every reference where the
/// paper counts about one per iteration). The Section-5 minimum-energy
/// point costs 980,000 nJ and 1,830,000 cycles against the paper's
/// 293,000 nJ and 142,000 cycles.
TEST(KnownDeviation, AbsoluteNumbersDifferByConstantFactors) {
  const auto minE = minEnergyPoint(mpegSweep().combined.points);
  EXPECT_NEAR(minE->energyNj / 293000.0, 3.34, 0.05);
  EXPECT_NEAR(minE->cycles / 142000.0, 12.9, 0.1);
}

/// Deviation 2: at fixed C the energy is flat in L (a halved miss rate
/// cancels the doubled Em * L term): within 1% for every feasible L up
/// to 32, while L64 costs 10% or more.
TEST(KnownDeviation, EnergyFlatInLineSizeAtFixedCache) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = compressKernel();
  for (const std::uint32_t size : {32u, 64u, 128u, 256u, 512u}) {
    const double l4 = ex.evaluate(k, dmc(size, 4)).energyNj;
    for (std::uint32_t line = 8; line <= std::min(32u, size / 4);
         line *= 2) {
      EXPECT_LT(relDiff(ex.evaluate(k, dmc(size, line)).energyNj, l4), 0.01)
          << "C" << size << "L" << line;
    }
  }
  for (const std::uint32_t size : {256u, 512u}) {
    EXPECT_GT(ex.evaluate(k, dmc(size, 64)).energyNj,
              1.1 * ex.evaluate(k, dmc(size, 32)).energyNj)
        << "C" << size;
  }
}

/// Deviation 3: Compress (a 1 KiB footprint) reaches its compulsory
/// floor at C64 for every line size up to 32, not at the paper's C512.
TEST(KnownDeviation, CompressCompulsoryFloorArrivesAtC64) {
  const Explorer ex{ExploreOptions{}};
  const Kernel k = compressKernel();
  for (const std::uint32_t line : {4u, 8u, 16u, 32u}) {
    const double floor = ex.evaluate(k, dmc(512, line)).missRate;
    EXPECT_DOUBLE_EQ(ex.evaluate(k, dmc(64, line)).missRate, floor)
        << "L" << line;
    if (line <= 8) {
      EXPECT_GT(ex.evaluate(k, dmc(32, line)).missRate, floor)
          << "L" << line;
    }
  }
}

/// Deviation 4: tiling never helps the no-reuse Dequant; the tile
/// boundaries only add line straddles (0.129 -> 0.348 at B = 4). The
/// paper reports energy falling up to B = 8 for every kernel.
TEST(KnownDeviation, TilingNeverHelpsDequant) {
  const std::vector<double> r =
      missRatesOverTiling(dequantKernel(), dmc(64, 8));
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_GE(r[i], r[0]) << "B" << (1u << i);
  }
  EXPECT_GT(r[2], 2.5 * r[0]);
}

/// Deviation 5: Figure 10's per-kernel table comes from modeled MPEG
/// kernels (Thordarson's code is unavailable), so its entries are ours,
/// pinned here.
TEST(KnownDeviation, Fig10TableComesFromModeledKernels) {
  std::vector<std::string> optima;
  for (const ExplorationResult& r : mpegSweep().perKernel) {
    optima.push_back(r.workload + " " + minEnergyPoint(r.points)->label());
  }
  EXPECT_EQ(optima, (std::vector<std::string>{
                        "VLD C16L4S4", "Dequant C64L16S2B2",
                        "IDCT C128L4S8B2", "Plus C16L4S4",
                        "Display C16L8S2", "Store C16L8S2", "Addr C16L8S2",
                        "Fetch C16L4S4B2", "Compute C64L4"}));
}

}  // namespace
}  // namespace memx
