// reproduce_paper — print every table behind the paper's figures, its
// Section-3 and Section-5 analyses, and the ablations and extensions, in
// EXPERIMENTS.md order; then archive the paper's sweeps as CSV files (one
// per workload), plus a JSON dump of the MPEG composite, into an output
// directory. The claims these tables support are asserted by the
// PaperClaims.* and KnownDeviation.* tests (tests/integration_test.cpp).
//
// Usage: reproduce_paper [output-dir]   (default: ./paper_results)
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "memx/cachesim/bus_monitor.hpp"
#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/cachesim/miss_classifier.hpp"
#include "memx/core/analytic_model.hpp"
#include "memx/core/config_bank.hpp"
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
#include "memx/report/result_io.hpp"
#include "memx/report/table.hpp"
#include "memx/spm/spm_explorer.hpp"
#include "memx/trace/working_set.hpp"
#include "memx/xform/tiling.hpp"

namespace {

using namespace memx;

/// Direct-mapped (or `ways`-way) cache configuration shorthand.
CacheConfig dm(std::uint32_t size, std::uint32_t line,
               std::uint32_t ways = 1) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = ways;
  return c;
}

ExploreOptions withEm(double emNj) {
  ExploreOptions o;
  o.energy.emNj = emNj;
  return o;
}

/// The Figure-4 family's sweep: direct-mapped, untiled, C <= 512.
ExploreOptions dmSweep() {
  ExploreOptions o;
  o.ranges.maxCacheBytes = 512;
  o.ranges.sweepAssociativity = false;
  o.ranges.sweepTiling = false;
  return o;
}

void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// One metric of a point, as the figure tables print it.
std::string metricCell(const char* metric, const DesignPoint& p) {
  if (std::string(metric) == "miss rate") return fmtFixed(p.missRate, 3);
  if (std::string(metric) == "cycles") return fmtSig3(p.cycles);
  return fmtSig3(p.energyNj);
}

/// Compress over the paper's (C, L) grid, keeping >= 4 cache lines.
void printCompressGrid(const Explorer& ex,
                       std::initializer_list<std::uint32_t> sizes,
                       bool cycles) {
  const Kernel k = compressKernel();
  Table t({"cache", "L4", "L8", "L16", "L32", "L64"});
  for (const std::uint32_t size : sizes) {
    std::vector<std::string> row{"C" + std::to_string(size)};
    for (const std::uint32_t line : {4u, 8u, 16u, 32u, 64u}) {
      if (line > size / 4) {
        row.push_back("-");
        continue;
      }
      const DesignPoint p = ex.evaluate(k, dm(size, line));
      row.push_back(fmtSig3(cycles ? p.cycles : p.energyNj));
    }
    t.addRow(std::move(row));
  }
  std::cout << t;
}

// Figure 1: Compress energy vs (C, L) at the two main-memory extremes.
void figure1() {
  const Explorer hi(withEm(kEmHigh16MbitNj));
  const Explorer lo(withEm(kEmLow2MbitNj));
  section("Figure 1a: Compress energy (nJ), Em = 43.56 nJ (16 Mbit SRAM)");
  printCompressGrid(hi, {16, 32, 64, 128, 256, 512}, false);
  section("Figure 1b: Compress energy (nJ), Em = 2.31 nJ (2 Mbit SRAM)");
  printCompressGrid(lo, {16, 32, 64, 128, 256, 512}, false);

  const Kernel k = compressKernel();
  const double hiSmall = hi.evaluate(k, dm(16, 4)).energyNj;
  const double hiLarge = hi.evaluate(k, dm(512, 4)).energyNj;
  const double loSmall = lo.evaluate(k, dm(16, 4)).energyNj;
  const double loLarge = lo.evaluate(k, dm(512, 4)).energyNj;
  std::cout << "\nEm = 43.56: C16L4 " << fmtSig3(hiSmall) << " -> C512L4 "
            << fmtSig3(hiLarge)
            << (hiLarge < hiSmall ? "  (energy falls with cache size)"
                                  : "  (!! expected fall)")
            << "\nEm =  2.31: C16L4 " << fmtSig3(loSmall) << " -> C512L4 "
            << fmtSig3(loLarge)
            << (loLarge > loSmall ? "  (energy rises with cache size)"
                                  : "  (!! expected rise)")
            << '\n';
}

// Figure 2: the five kernels along the C16L4 ... C128L32 diagonal.
void figure2() {
  const Explorer ex{ExploreOptions{}};
  const std::vector<Kernel> kernels = paperBenchmarks();
  const std::vector<std::string> header{"config", "Compress", "Mat.Multi.",
                                        "PDE", "SOR", "Dequant"};
  Table miss(header), cycles(header), energy(header);
  for (const auto& [size, line] :
       {std::pair{16u, 4u}, std::pair{32u, 8u}, std::pair{64u, 16u},
        std::pair{128u, 32u}}) {
    const std::string label =
        "C" + std::to_string(size) + "L" + std::to_string(line);
    std::vector<std::string> mrow{label}, crow{label}, erow{label};
    for (const Kernel& k : kernels) {
      const DesignPoint p = ex.evaluate(k, dm(size, line));
      mrow.push_back(fmtFixed(p.missRate, 3));
      crow.push_back(fmtSig3(p.cycles));
      erow.push_back(fmtSig3(p.energyNj));
    }
    miss.addRow(std::move(mrow));
    cycles.addRow(std::move(crow));
    energy.addRow(std::move(erow));
  }
  section("Figure 2: miss rate vs (C, L), Em = 4.95 nJ");
  std::cout << miss;
  section("Figure 2: number of cycles vs (C, L)");
  std::cout << cycles;
  section("Figure 2: energy (nJ) vs (C, L)");
  std::cout << energy;
}

// Figure 3: Compress cycles over the (C, L) grid.
void figure3() {
  section("Figure 3: Compress cycles vs (C, L), >= 4 cache lines");
  printCompressGrid(Explorer(ExploreOptions{}), {32, 64, 128, 256, 512},
                    true);
  std::cout << "\nCycles fall toward large caches with long lines down "
               "to L32; L64 is\nslightly slower, so the grid's minimum-time "
               "configuration is L32 from\nC128 up.\n";
}

// Figure 4: Compress energy grid plus the paper's bounded selections.
void figure4() {
  section("Figure 4: Compress energy (nJ) vs (C, L), Em = 4.95 nJ");
  const ExploreOptions o = dmSweep();
  const Explorer ex(o);
  const Kernel k = compressKernel();
  printCompressGrid(ex, {16, 32, 64, 128, 256, 512}, false);

  const ExplorationResult r = ex.explore(k);
  const auto minE = minEnergyPoint(r.points);
  const auto minC = minCyclePoint(r.points);
  std::cout << "\nminimum-energy configuration: " << minE->label() << " ("
            << fmtSig3(minE->energyNj) << " nJ, " << fmtSig3(minE->cycles)
            << " cycles)\n";
  std::cout << "minimum-time configuration:   " << minC->label() << " ("
            << fmtSig3(minC->cycles) << " cycles, "
            << fmtSig3(minC->energyNj) << " nJ)\n";

  // The paper's walkthrough bounds; this loose, they leave both optima
  // in place. No bound forces a compromise point either: the Pareto
  // front is just the two optima, so a cycle bound between them still
  // selects the minimum-time configuration.
  const double cycleBound = 1.6 * minC->cycles;
  const auto underCycles = minEnergyPoint(r.points, cycleBound);
  std::cout << "min-energy with cycles <= " << fmtSig3(cycleBound) << ": "
            << underCycles->label() << '\n';
  const double energyBound = 1.5 * minE->energyNj;
  const auto underEnergy = minCyclePoint(r.points, energyBound);
  std::cout << "min-time with energy (nJ) <= " << fmtSig3(energyBound)
            << ": " << underEnergy->label() << '\n';
  std::cout << "Pareto front (cycles, energy):";
  for (const DesignPoint& p : paretoFront(r.points)) {
    std::cout << ' ' << p.label();
  }
  std::cout << '\n';

  // The paper reports C16L4 as the minimum-energy configuration. Its
  // Em * line_size term charges one SRAM access per *byte*; the Cypress
  // part is 16 bits wide, so the physically-consistent reading charges
  // one access per two bytes. Under that reading the selection matches
  // the paper exactly:
  ExploreOptions o16 = o;
  o16.energy.mainBytesPerAccess = 2;
  const auto minE16 = minEnergyPoint(Explorer(o16).explore(k).points);
  std::cout << "\nwith a 16-bit main-memory part (Em per 2 bytes): "
               "min-energy = "
            << minE16->label() << " (" << fmtSig3(minE16->energyNj)
            << " nJ)"
            << (minE16->key.cacheBytes == 16
                    ? "  <- the paper's C16L4 corner\n"
                    : "\n");
}

// Figure 5: off-chip assignment, word-array Compress (128-byte rows
// alias in all three caches, as the paper's unoptimized placement does).
void figure5() {
  section("Figure 5: Compress miss rate, optimized vs unoptimized layout");
  const Kernel k = compressKernel(32, 4);
  Table t({"config", "unoptimized", "optimized", "improvement",
           "conflicts removed"});
  for (const auto& [size, line] :
       {std::pair{32u, 4u}, std::pair{64u, 8u}, std::pair{128u, 16u}}) {
    const CacheConfig cache = dm(size, line);
    const MissBreakdown unopt =
        classifyMisses(cache, generateTrace(k, sequentialLayout(k)));
    const AssignmentPlan plan = assignConflictFree(k, cache);
    const MissBreakdown opt =
        classifyMisses(cache, generateTrace(k, plan.layout));
    t.addRow({cache.label(), fmtFixed(unopt.missRate(), 3),
              fmtFixed(opt.missRate(), 3),
              fmtFixed(unopt.missRate() / std::max(opt.missRate(), 1e-9),
                       1) +
                  "x",
              std::to_string(unopt.conflict - opt.conflict)});
  }
  std::cout << t;
  std::cout << "\nAs in the paper, the off-chip assignment removes the "
               "conflict misses\nand is the single largest performance "
               "lever in the study.\n";
}

// Figure 6: metrics vs tiling size at C64L8, plus transpose (Example 3).
void figure6() {
  const Explorer ex{ExploreOptions{}};
  std::vector<Kernel> kernels = paperBenchmarks();
  kernels.push_back(transposeKernel(32));
  for (const char* metric : {"miss rate", "cycles", "energy (nJ)"}) {
    section(std::string("Figure 6: ") + metric + " vs tiling size, C64L8");
    Table t({"kernel", "B1", "B2", "B4", "B8", "B16"});
    for (const Kernel& k : kernels) {
      std::vector<std::string> row{k.name};
      for (const std::uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
        row.push_back(metricCell(metric, ex.evaluate(k, dm(64, 8), b)));
      }
      t.addRow(std::move(row));
    }
    std::cout << t;
  }
  std::cout << "\nOnly transpose is U-shaped: B2 removes a quarter of "
               "its misses and\nB8 gives them back once the tile exceeds "
               "the 8 cache lines. Compress\nis best untiled, sor and pde "
               "at B16; streaming dequant only pays\nfor the tile "
               "boundaries.\n";
}

// Figure 7: Compress and Dequant energy vs tiling and vs associativity.
void figure7() {
  const Explorer ex{ExploreOptions{}};
  const std::vector<Kernel> kernels = {compressKernel(), dequantKernel()};

  section("Figure 7a: energy (nJ) vs tiling size, C64L8");
  Table tiling({"kernel", "T1", "T2", "T4", "T8", "T16"});
  for (const Kernel& k : kernels) {
    std::vector<std::string> row{k.name};
    for (const std::uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
      row.push_back(fmtSig3(ex.evaluate(k, dm(64, 8), b).energyNj));
    }
    tiling.addRow(std::move(row));
  }
  std::cout << tiling;

  section("Figure 7b: energy (nJ) vs set associativity, C64L8");
  Table assoc({"kernel", "SA1", "SA2", "SA4", "SA8"});
  for (const Kernel& k : kernels) {
    std::vector<std::string> row{k.name};
    for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
      row.push_back(fmtSig3(ex.evaluate(k, dm(64, 8, s)).energyNj));
    }
    assoc.addRow(std::move(row));
  }
  std::cout << assoc;
}

void printAssocGrid(const Explorer& ex, std::uint32_t size,
                    std::uint32_t line) {
  const std::vector<Kernel> kernels = paperBenchmarks();
  for (const char* metric : {"miss rate", "cycles", "energy (nJ)"}) {
    Table t({"kernel", "SA1", "SA2", "SA4", "SA8"});
    for (const Kernel& k : kernels) {
      std::vector<std::string> row{k.name};
      for (const std::uint32_t s : {1u, 2u, 4u, 8u}) {
        row.push_back(metricCell(metric, ex.evaluate(k, dm(size, line, s))));
      }
      t.addRow(std::move(row));
    }
    std::cout << metric << ":\n" << t << '\n';
  }
}

// Figure 8: metrics vs associativity at C64L8, and at C1024L32.
void figure8() {
  const Explorer ex{ExploreOptions{}};
  section("Figure 8: metrics vs set associativity, C64L8, tiling 1");
  printAssocGrid(ex, 64, 8);
  section(
      "Section 4.3 counterpoint: C1024L32 — cycles/energy no longer "
      "necessarily improve");
  printAssocGrid(ex, 1024, 32);
}

// Figure 9: (SA, TS) combinations at C64L8, word-array kernels;
// parentheses hold the unoptimized (tight) layout's values.
void figure9() {
  section("Figure 9: metrics vs (SA, TS) at C64L8; parentheses = "
          "unoptimized layout");
  const Explorer opt{ExploreOptions{}};
  ExploreOptions uo;
  uo.optimizeLayout = false;
  const Explorer unopt(uo);
  const std::vector<Kernel> kernels = {
      compressKernel(32, 4), matMulKernel(32, 4), pdeKernel(33, 4),
      sorKernel(33, 4), dequantKernel(32, 4)};

  for (const char* metric : {"miss rate", "cycles", "energy (nJ)"}) {
    Table t({"kernel", "SA1 TS1", "SA2 TS4", "SA8 TS8"});
    for (const Kernel& k : kernels) {
      std::vector<std::string> row{k.name};
      for (const auto& [sa, ts] :
           {std::pair{1u, 1u}, std::pair{2u, 4u}, std::pair{8u, 8u}}) {
        row.push_back(metricCell(metric, opt.evaluate(k, dm(64, 8, sa), ts)) +
                      " (" +
                      metricCell(metric,
                                 unopt.evaluate(k, dm(64, 8, sa), ts)) +
                      ")");
      }
      t.addRow(std::move(row));
    }
    std::cout << metric << ":\n" << t << '\n';
  }
  std::cout << "At SA1 TS1 the unoptimized layout misses 1.45-3.9x as "
               "often as the\noptimized one; with more ways and tiles the "
               "gap closes, and at\nSA8 TS8 the two layouts agree within "
               "0.02 — associativity absorbs\nthe same conflicts the "
               "layout removes.\n";
}

// Figure 10: per-kernel minimum-energy MPEG configurations.
void figure10(const CompositeProgram::Result& mpeg) {
  section("Figure 10: minimum-energy cache configuration per MPEG kernel");
  Table t({"kernel", "cache size", "line size", "set assoc.",
           "tiling size", "energy (nJ)", "miss rate"});
  for (const ExplorationResult& r : mpeg.perKernel) {
    const auto best = minEnergyPoint(r.points);
    t.addRow({r.workload, std::to_string(best->key.cacheBytes),
              std::to_string(best->key.lineBytes),
              std::to_string(best->key.associativity),
              std::to_string(best->key.tiling), fmtSig3(best->energyNj),
              fmtFixed(best->missRate, 3)});
  }
  std::cout << t;
  std::cout << "\nAs in the paper, different kernels prefer different "
               "corners of the\ndesign space (streaming kernels want tiny "
               "caches; table-reuse kernels\nwant to fit their tables).\n";
}

// Section 5: the whole-program MPEG optimum.
void section5(const CompositeProgram::Result& mpeg) {
  section("Section 5: MPEG decoder whole-program exploration");
  const auto minE = minEnergyPoint(mpeg.combined.points);
  const auto minC = minCyclePoint(mpeg.combined.points);

  Table t({"objective", "config", "energy (nJ)", "cycles", "miss rate"});
  t.addRow({"minimum energy", minE->label(), fmtSig3(minE->energyNj),
            fmtSig3(minE->cycles), fmtFixed(minE->missRate, 3)});
  t.addRow({"minimum cycles", minC->label(), fmtSig3(minC->energyNj),
            fmtSig3(minC->cycles), fmtFixed(minC->missRate, 3)});
  std::cout << t;

  std::cout << "\npaper reference: min-energy C64 L4 SA8 T16 "
               "(293,000 nJ; 142,000 cycles)\n"
               "                 min-cycles C512 L16 SA8 T8 "
               "(1,110,000 nJ; 121,000 cycles)\n";
  std::cout << (minE->key != minC->key
                    ? "\nReproduced: the two objectives select different "
                      "configurations.\n"
                    : "\n!! expected the objectives to differ\n");

  const bool anyMatchesComposite = std::any_of(
      mpeg.perKernel.begin(), mpeg.perKernel.end(),
      [&](const ExplorationResult& r) {
        return minEnergyPoint(r.points)->key == minE->key;
      });
  std::cout << (anyMatchesComposite
                    ? "note: one kernel's optimum coincides with the "
                      "composite optimum in this run\n"
                    : "Reproduced: no per-kernel optimum equals the "
                      "whole-program optimum.\n");
}

// Section 3: reference classes and the analytical minimum cache size.
void section3() {
  section("Section 3: reference classes and minimum cache size");
  std::vector<Kernel> kernels = paperBenchmarks();
  kernels.push_back(transposeKernel(32));
  kernels.push_back(mpegVldKernel());

  Table t({"kernel", "classes", "cases", "indirect", "min lines (L=4)",
           "min size (L=4)", "min lines (L=16)", "min size (L=16)"});
  for (const Kernel& k : kernels) {
    const RefAnalysis a = analyzeReferences(k);
    t.addRow({k.name, std::to_string(a.groups.size()),
              std::to_string(a.cases.size()),
              std::to_string(a.indirectAccesses.size()),
              std::to_string(minCacheLines(k, 4)),
              std::to_string(minCacheSizeBytes(k, 4)),
              std::to_string(minCacheLines(k, 16)),
              std::to_string(minCacheSizeBytes(k, 16))});
  }
  std::cout << t;
  std::cout << "\nCompress: 2 classes, 2 lines each => minimum cache "
               "size 4L, exactly as\nthe paper derives in Section 3.\n";
}

// Ablation: Gray-coded vs binary address buses.
void ablationAddrEncoding() {
  section("Ablation: address-bus switching, Gray vs binary encoding");
  Table t({"kernel", "Gray (switches/access)", "binary (switches/access)",
           "ratio", "energy w/ Gray (nJ)", "energy w/ binary (nJ)"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    const double gray = measureAddrActivity(trace, AddressEncoding::Gray);
    const double bin = measureAddrActivity(trace, AddressEncoding::Binary);
    // Energy under each activity figure at a representative point.
    const CacheEnergyModel mGray(dm(64, 8), EnergyParams{}, gray);
    const CacheEnergyModel mBin(dm(64, 8), EnergyParams{}, bin);
    const double mr = 0.1;
    t.addRow({k.name, fmtFixed(gray, 3), fmtFixed(bin, 3),
              fmtFixed(bin / std::max(gray, 1e-9), 2),
              fmtSig3(mGray.totalNj(k.referenceCount(), mr)),
              fmtSig3(mBin.totalNj(k.referenceCount(), mr))});
  }
  std::cout << t;
  std::cout << "\nGray coding reduces switching on the stride-dominated "
               "kernels; the total\nenergy impact is small because E_dec "
               "is a minor term (alpha = 0.001).\n";
}

// Ablation: replacement policy at a 4-way C128L8.
void ablationReplacement() {
  section("Ablation: replacement policy, 4-way C128L8");
  Table t({"kernel", "LRU miss rate", "FIFO miss rate",
           "random miss rate"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    std::vector<std::string> row{k.name};
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random}) {
      CacheConfig c = dm(128, 8, 4);
      c.replacement = policy;
      row.push_back(fmtFixed(simulateTrace(c, trace).missRate(), 4));
    }
    t.addRow(std::move(row));
  }
  std::cout << t;
}

// Ablation: the off-chip write traffic each write policy adds.
void ablationWritePolicy() {
  section("Ablation: write policy, C64L8 (off-chip write traffic)");
  Table t({"kernel", "writes", "WB writebacks", "WT mem writes",
           "WB traffic (lines)", "WT traffic (words)"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    CacheConfig wb = dm(64, 8);
    wb.writePolicy = WritePolicy::WriteBack;
    const CacheStats sWb = simulateTrace(wb, trace);
    CacheConfig wt = dm(64, 8);
    wt.writePolicy = WritePolicy::WriteThrough;
    const CacheStats sWt = simulateTrace(wt, trace);
    t.addRow({k.name, std::to_string(sWb.writes),
              std::to_string(sWb.writebacks),
              std::to_string(sWt.memWrites),
              std::to_string(sWb.writebacks),
              std::to_string(sWt.memWrites)});
  }
  std::cout << t;
  std::cout << "\nRead fills dominate the off-chip traffic on every "
               "kernel, supporting the\npaper's read-only energy "
               "accounting.\n";
}

// Ablation: the paper's closed-form miss rates vs simulation.
void ablationAnalyticVsSim() {
  section("Ablation: analytic miss-rate model vs trace-driven simulation");
  Table t({"kernel", "config", "analytic", "simulated", "abs error"});
  for (const Kernel& k : paperBenchmarks()) {
    for (const auto& [size, line] :
         {std::pair{64u, 8u}, std::pair{256u, 16u}}) {
      const CacheConfig cache = dm(size, line);
      const AssignmentPlan plan = assignConflictFree(k, cache);
      const double sim =
          simulateTrace(cache, generateTrace(k, plan.layout)).missRate();
      const double analytic = analyticMissRate(k, cache, plan.complete);
      t.addRow({k.name, cache.label(), fmtFixed(analytic, 4),
                fmtFixed(sim, 4), fmtFixed(std::abs(analytic - sim), 4)});
    }
  }
  std::cout << t;
  std::cout << "\nThe closed form tracks the simulator on streaming "
               "kernels and drifts on\nkernels with cross-iteration "
               "temporal reuse the expressions do not see\n(the paper's "
               "matmul), motivating the simulator this library adds.\n";
}

// Ablation: loop interchange vs tiling on transpose (Example 3).
void ablationInterchange() {
  section("Ablation: interchange vs tiling on transpose (Example 3)");
  const Kernel original = transposeKernel(32);
  const Explorer ex{ExploreOptions{}};
  const CacheConfig cache = dm(128, 8);

  Table t({"variant", "miss rate", "cycles", "energy (nJ)"});
  auto addRow = [&](const std::string& name, const DesignPoint& p) {
    t.addRow({name, fmtFixed(p.missRate, 3), fmtSig3(p.cycles),
              fmtSig3(p.energyNj)});
  };
  addRow("original (i, j)", ex.evaluate(original, cache, 1));
  addRow("interchanged (j, i)",
         ex.evaluate(interchange(original, 0, 1), cache, 1));
  for (const std::uint32_t b : {2u, 4u}) {
    addRow("tiled B=" + std::to_string(b), ex.evaluate(original, cache, b));
  }
  std::cout << t;
  std::cout << "\nInterchange merely swaps which array streams "
               "(miss rates comparable);\ntiling is the transform that "
               "actually removes misses — the paper's\nExample 3 "
               "argument, verified by simulation.\n";
}

// Extension: I-cache exploration over the kernels' fetch streams.
void extICache() {
  section("Extension: I-cache exploration over kernel fetch streams");
  const InstructionLayout layout;
  ExploreOptions o;
  o.ranges.minCacheBytes = 32;
  o.ranges.maxLineBytes = 32;
  o.ranges.maxAssociativity = 2;

  Table t({"kernel", "code bytes", "fetches", "min-energy I-cache",
           "miss rate", "energy (nJ)"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace fetches = generateIFetchTrace(k, layout);
    const ExplorationResult r =
        exploreTrace("icache-" + k.name, fetches, o);
    const auto best = minEnergyPoint(r.points);
    t.addRow({k.name, std::to_string(layout.codeBytes(k)),
              std::to_string(fetches.size()), best->label(),
              fmtFixed(best->missRate, 4), fmtSig3(best->energyNj)});
  }
  std::cout << t;
  std::cout << "\nLoops are tiny: the minimum-energy I-cache holds the "
               "loop body (C128\nfor the 100-112-byte bodies) and nearly "
               "every fetch hits; only\ndequant's 76-byte body settles for "
               "C64 and a 1.3% miss rate, since\nlarger arrays only burn "
               "cell energy.\n";
}

// Extension: single-level caches vs an L1 + L2 stack.
void extHierarchy() {
  section("Extension: single-level vs two-level hierarchy (off-chip "
          "line fills)");
  Table t({"kernel", "C64L8 only", "C256L16 only", "C64L8 + L2 256L16",
           "L1 miss rate", "global miss rate"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    CacheSim small(dm(64, 8));
    small.run(trace);
    CacheSim big(dm(256, 16));
    big.run(trace);
    const L1Filter l1 = filterL1(dm(64, 8), trace);
    ConfigBank l2(SweepBackend::MultiSim, {dm(256, 16, 2)});
    l2.run(l1.l2Stream);
    const HierarchyStats stack{l1.l1, l2.stats(0)};
    t.addRow({k.name, std::to_string(small.stats().lineFills),
              std::to_string(big.stats().lineFills),
              std::to_string(stack.l2.lineFills),
              fmtFixed(stack.l1.missRate(), 3),
              fmtFixed(stack.globalMissRate(), 3)});
  }
  std::cout << t;
  std::cout << "\nThe stack's off-chip traffic approaches the big "
               "single-level cache while\nmost accesses still pay only "
               "the small-cache hit energy.\n";
}

void printBudgetSplits(const Kernel& k, std::uint32_t budget) {
  Table t({"split", "SPM arrays", "SPM accesses", "cache miss rate",
           "cycles", "energy (nJ)"});
  for (const SplitResult& r : exploreBudgetSplits(k, budget, 8)) {
    std::string arrays;
    for (const std::string& name : r.spmArrays) {
      if (!arrays.empty()) arrays += ",";
      arrays += name;
    }
    if (arrays.empty()) arrays = "-";
    t.addRow({r.label(), arrays, std::to_string(r.spmAccesses),
              fmtFixed(r.cacheMissRate, 3), fmtSig3(r.cycles),
              fmtSig3(r.energyNj)});
  }
  std::cout << "-- " << k.name << " (budget " << budget << " B) --\n"
            << t << '\n';
}

// Extension: scratchpad/cache splits of one on-chip budget.
void extScratchpad() {
  section("Extension: scratchpad/cache splits of one on-chip budget");
  // The MPEG dequant kernel has a hot 128-byte quantizer table: a split
  // that pins it in the SPM beats every pure cache.
  printBudgetSplits(mpegDequantKernel(), 512);
  // The paper's dequant streams three arrays with no reuse: the SPM can
  // only capture whole arrays, and no split places any array in it.
  printBudgetSplits(dequantKernel(), 512);
  printBudgetSplits(mpegComputeKernel(), 2048);
}

// Extension: Mattson working-set curves vs the Section-3 minimum.
void extWorkingSet() {
  section("Extension: working-set curves (fully-associative miss rate "
          "vs lines, L = 8)");
  Table t({"kernel", "2", "4", "8", "16", "32", "64", "knee (90% hits)",
           "Section-3 min lines"});
  for (const Kernel& k : paperBenchmarks()) {
    const ReuseProfile profile(generateTrace(k), 8);
    std::vector<std::string> row{k.name};
    for (const std::uint64_t lines : {2u, 4u, 8u, 16u, 32u, 64u}) {
      row.push_back(fmtFixed(profile.predictedMissRate(lines), 3));
    }
    row.push_back(std::to_string(profile.linesForHitRate(0.9)));
    row.push_back(std::to_string(minCacheLines(k, 8)));
    t.addRow(std::move(row));
  }
  std::cout << t;
  std::cout << "\nThe 90%-hit knee equals the Section-3 analytical "
               "minimum for compress\nand sor — two independent "
               "derivations of the same number; the other\nkernels' knees "
               "lie far above it.\n";
}

// Ablation: tag-array read energy on vs off.
void ablationTagEnergy() {
  section("Ablation: tag-array energy on vs off (Compress sweep)");
  ExploreOptions off;
  off.ranges.sweepAssociativity = false;
  off.ranges.sweepTiling = false;
  ExploreOptions on = off;
  on.energy.includeTagArray = true;
  const Kernel k = compressKernel();
  const Explorer exOff(off);
  const Explorer exOn(on);

  Table t({"config", "energy w/o tags", "energy w/ tags", "delta"});
  for (const auto& [size, line] :
       {std::pair{16u, 4u}, std::pair{64u, 8u}, std::pair{256u, 16u},
        std::pair{1024u, 32u}}) {
    const double eOff = exOff.evaluate(k, dm(size, line)).energyNj;
    const double eOn = exOn.evaluate(k, dm(size, line)).energyNj;
    t.addRow({dm(size, line).label(), fmtSig3(eOff), fmtSig3(eOn),
              fmtFixed(100.0 * (eOn - eOff) / eOff, 1) + "%"});
  }
  std::cout << t;

  const auto bestOff = minEnergyPoint(exOff.explore(k).points);
  const auto bestOn = minEnergyPoint(exOn.explore(k).points);
  std::cout << "\nmin-energy config without tags: " << bestOff->label()
            << "\nmin-energy config with tags:    " << bestOn->label()
            << '\n'
            << (bestOff->key == bestOn->key
                    ? "The selected configuration is unchanged — the "
                      "paper's omission is safe\nfor selection purposes, "
                      "even though absolute energies shift.\n"
                    : "The selected configuration CHANGES when tag "
                      "energy is modeled — the\nomission is not "
                      "selection-safe at these geometries.\n");
}

// One table of the selection's sensitivity: re-explore Compress with one
// energy constant set to each value in turn.
void printSensitivity(const std::string& name, double EnergyParams::*param,
                      std::initializer_list<double> values) {
  Table t({name, "min-energy config", "energy (nJ)", "min-cycle config",
           "cycles"});
  std::set<std::string> selected;
  for (const double v : values) {
    ExploreOptions o = dmSweep();
    o.energy.*param = v;
    const ExplorationResult r = Explorer(o).explore(compressKernel());
    const auto minE = minEnergyPoint(r.points);
    const auto minC = minCyclePoint(r.points);
    t.addRow({fmtSig3(v), minE->label(), fmtSig3(minE->energyNj),
              minC->label(), fmtSig3(minC->cycles)});
    selected.insert(minE->label());
  }
  std::cout << t;
  std::cout << (selected.size() == 1
                    ? "selection STABLE across the range\n\n"
                    : "selection MOVES across the range\n\n");
}

// Ablation: sensitivity of the selection to the model constants.
void ablationSensitivity() {
  section("Ablation: Em sensitivity (Compress)");
  printSensitivity("Em", &EnergyParams::emNj,
                   {1.0, kEmLow2MbitNj, kEmCypress2MbitNj, 10.0,
                    kEmHigh16MbitNj});
  section("Ablation: data-bus activity sensitivity (Compress)");
  printSensitivity("activity", &EnergyParams::dataActivity,
                   {0.1, 0.25, 0.5, 0.75, 1.0});
  section("Ablation: beta (cell energy) sensitivity (Compress)");
  printSensitivity("beta (pJ)", &EnergyParams::betaPj,
                   {0.5, 1.0, 2.0, 4.0, 8.0});
}

// Ablation: static (leakage) energy, the 2001 journal version's term.
void ablationLeakage() {
  section("Ablation: leakage coefficient vs the selected configuration "
          "(Compress)");
  Table t({"leakage (pJ/byte/cycle)", "min-energy config", "energy (nJ)",
           "C512L4 energy (nJ)"});
  const Kernel k = compressKernel();
  for (const double leak : {0.0, 1.0, 10.0, 100.0}) {
    ExploreOptions o = dmSweep();
    o.energy.leakagePjPerBytePerCycle = leak;
    const ExplorationResult r = Explorer(o).explore(k);
    const auto minE = minEnergyPoint(r.points);
    t.addRow({fmtFixed(leak, 1), minE->label(), fmtSig3(minE->energyNj),
              fmtSig3(r.at(ConfigKey{512, 4, 1, 1}).energyNj)});
  }
  std::cout << t;
  std::cout << "\nThe selected configuration stays put at every "
               "coefficient: Compress's\noptimum is already small and "
               "fast, while large caches pay rent for\nidle capacity "
               "(C512L4's energy grows with the coefficient).\n";
}

// Ablation: true LRU vs tree-PLRU vs FIFO vs random.
void ablationPlru() {
  section("Ablation: replacement policy at 4-way and 8-way C128L8");
  for (const std::uint32_t ways : {4u, 8u}) {
    Table t({"kernel", "LRU", "tree-PLRU", "FIFO", "random"});
    for (const Kernel& k : paperBenchmarks()) {
      std::vector<std::string> row{k.name};
      const Trace trace = generateTrace(k);
      for (const ReplacementPolicy policy :
           {ReplacementPolicy::LRU, ReplacementPolicy::TreePLRU,
            ReplacementPolicy::FIFO, ReplacementPolicy::Random}) {
        CacheConfig c = dm(128, 8, ways);
        c.replacement = policy;
        row.push_back(fmtFixed(simulateTrace(c, trace).missRate(), 4));
      }
      t.addRow(std::move(row));
    }
    std::cout << ways << "-way:\n" << t << '\n';
  }
  std::cout << "Tree-PLRU stays within 0.01 of true LRU at 4-way (and "
               "beats it on\nmatmul and pde) but trails it by up to 0.02 "
               "at 8-way (pde 0.0991 vs\n0.0807); the paper's LRU "
               "assumption costs little on embedded PLRU\nhardware.\n";
}

// Ablation: read-only energy (the paper's model) vs write-inclusive.
void ablationWriteEnergy() {
  section("Ablation: read-only vs write-inclusive energy, C64L8");
  Table t({"kernel", "policy", "read-only (nJ)", "with writes (nJ)",
           "delta"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    for (const WritePolicy wp :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      CacheConfig c = dm(64, 8);
      c.writePolicy = wp;
      const CacheStats stats = simulateTrace(c, trace);
      const CacheEnergyModel model(c, EnergyParams{},
                                   measureAddrActivity(trace));
      const double readOnly = model.totalNj(stats);
      const double full = model.totalIncludingWritesNj(stats);
      t.addRow({k.name, toString(wp), fmtSig3(readOnly), fmtSig3(full),
                fmtFixed(100.0 * (full - readOnly) / readOnly, 1) + "%"});
    }
  }
  std::cout << t;
  std::cout << "\nWith write-back caches the store traffic adds a modest "
               "share; with\nwrite-through (no buffer) it would not be "
               "ignorable — quantifying the\npaper's implicit write-back "
               "assumption.\n";
}

// Extension: the best swept (L1, L2) stack vs the single-level cache of
// the same total bytes.
void extL2Explore() {
  section("Extension: (L1, L2) sweep vs best single-level cache");
  Table t({"kernel", "best stack", "stack energy (nJ)",
           "stack global mr", "flat cache (same bytes)",
           "flat energy (nJ)"});
  for (const Kernel& k : paperBenchmarks()) {
    const Trace trace = generateTrace(k);
    const auto points = exploreHierarchy(trace, HierarchyRanges{});
    const HierarchyPoint& best = *std::min_element(
        points.begin(), points.end(),
        [](const HierarchyPoint& a, const HierarchyPoint& b) {
          return a.energyNj < b.energyNj;
        });

    const std::uint32_t totalBytes = best.l1.sizeBytes + best.l2.sizeBytes;
    std::uint32_t flatSize = 1;
    while (flatSize * 2 <= totalBytes) flatSize *= 2;
    const CacheConfig flat = dm(flatSize, 16);
    const CacheEnergyModel flatModel(flat, EnergyParams{},
                                     measureAddrActivity(trace));
    t.addRow({k.name, best.label(), fmtSig3(best.energyNj),
              fmtFixed(best.globalMissRate, 3), flat.label(),
              fmtSig3(flatModel.totalNj(simulateTrace(flat, trace)))});
  }
  std::cout << t;
  std::cout << "\nMost accesses hit the small L1 at small-array energy; "
               "the L2 keeps the\noff-chip traffic of a large cache. The "
               "stack wins whenever the kernel\nhas both a hot working "
               "set and a long tail.\n";
}

// The sweeps the figures are built from, one CSV per workload.
void archive(const std::filesystem::path& outDir,
             const CompositeProgram::Result& mpeg) {
  std::cout << '\n';
  const Explorer explorer{ExploreOptions{}};
  for (const Kernel& kernel : paperBenchmarks()) {
    const ExplorationResult result = explorer.explore(kernel);
    const std::filesystem::path file = outDir / (kernel.name + ".csv");
    std::ofstream os(file);
    writeResultCsv(os, result);
    std::cout << kernel.name << ": " << result.points.size()
              << " points -> " << file.string() << "  (min energy "
              << minEnergyPoint(result.points)->label() << ", min cycles "
              << minCyclePoint(result.points)->label() << ")\n";
  }

  {
    std::ofstream os(outDir / "mpeg_combined.csv");
    writeResultCsv(os, mpeg.combined);
  }
  {
    std::ofstream os(outDir / "mpeg_combined.json");
    writeResultJson(os, mpeg.combined);
  }
  for (const ExplorationResult& r : mpeg.perKernel) {
    std::ofstream os(outDir / ("mpeg_" + r.workload + ".csv"));
    writeResultCsv(os, r);
  }
  std::cout << "mpeg-decoder: min energy "
            << minEnergyPoint(mpeg.combined.points)->label()
            << ", min cycles "
            << minCyclePoint(mpeg.combined.points)->label() << " -> "
            << (outDir / "mpeg_combined.csv").string() << '\n';

  std::cout << "\nAll sweeps archived under " << outDir.string()
            << " — diff two runs to spot regressions.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path outDir = argc > 1 ? argv[1] : "paper_results";
  std::filesystem::create_directories(outDir);

  // Section 5's MPEG ranges: one composite sweep serves Figure 10,
  // Section 5 and the archive.
  ExploreOptions mpegOptions;
  mpegOptions.ranges.maxCacheBytes = 512;
  mpegOptions.ranges.maxLineBytes = 16;
  const CompositeProgram::Result mpeg =
      mpegDecoder().explore(Explorer(mpegOptions));

  figure1();
  figure2();
  figure3();
  figure4();
  figure5();
  figure6();
  figure7();
  figure8();
  figure9();
  figure10(mpeg);
  section5(mpeg);
  section3();
  ablationAddrEncoding();
  ablationReplacement();
  ablationWritePolicy();
  ablationAnalyticVsSim();
  ablationInterchange();
  extICache();
  extHierarchy();
  extScratchpad();
  extWorkingSet();
  ablationTagEnergy();
  ablationSensitivity();
  ablationLeakage();
  ablationPlru();
  ablationWriteEnergy();
  extL2Explore();
  archive(outDir, mpeg);
  return 0;
}
