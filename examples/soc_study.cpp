// SoC memory study: one workload, every organization this library can
// model — plain caches across the paper's sweep, higher associativity,
// an L1+L2 stack, the Section-4.1 data layout and a scratchpad split —
// all reported on the same miss/traffic axes.
//
// Usage: soc_study [kernel]   (default: dequant)
#include <iostream>
#include <string>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/core/config_bank.hpp"
#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/loopir/trace_gen.hpp"
#include "memx/report/table.hpp"
#include "memx/spm/spm_explorer.hpp"

namespace {

using namespace memx;

Kernel pickKernel(const std::string& name) {
  if (name == "compress") return compressKernel(32, 4);
  if (name == "sor") return sorKernel(33, 4);
  if (name == "mpeg-dequant") return mpegDequantKernel();
  return dequantKernel(32, 4);
}

CacheConfig dm(std::uint32_t size, std::uint32_t line,
               std::uint32_t ways = 1) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = ways;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "dequant";
  const Kernel kernel = pickKernel(name);
  const Trace trace = generateTrace(kernel);
  const double n = static_cast<double>(trace.size());

  std::cout << "SoC memory study: " << kernel.name << " ("
            << trace.size() << " references)\n\n";

  Table t({"organization", "miss rate", "off-chip lines/access"});
  auto addSim = [&](const std::string& label, const CacheConfig& c) {
    const CacheStats s = simulateTrace(c, trace);
    t.addRow({label, fmtFixed(s.missRate(), 3),
              fmtFixed(static_cast<double>(s.lineFills) / n, 3)});
  };

  addSim("C64L8 direct-mapped", dm(64, 8));
  addSim("C64L8 4-way", dm(64, 8, 4));
  addSim("C256L8 direct-mapped", dm(256, 8));

  {
    // The L2 replays the L1's miss and victim stream; its line fills
    // are the stack's off-chip traffic.
    const L1Filter l1 = filterL1(dm(64, 8), trace);
    ConfigBank l2(SweepBackend::MultiSim, {dm(256, 16, 2)});
    l2.run(l1.l2Stream);
    const HierarchyStats s{l1.l1, l2.stats(0)};
    t.addRow({"C64L8 + L2 256L16x2", fmtFixed(s.globalMissRate(), 3),
              fmtFixed(static_cast<double>(s.l2.lineFills) / n, 3)});
  }
  {
    const AssignmentPlan plan = assignConflictFree(kernel, dm(64, 8));
    const CacheStats s =
        simulateTrace(dm(64, 8), generateTrace(kernel, plan.layout));
    t.addRow({"C64L8 + 4.1 data layout", fmtFixed(s.missRate(), 3),
              fmtFixed(static_cast<double>(s.lineFills) / n, 3)});
  }
  {
    ScratchpadConfig spm;
    spm.sizeBytes = 128;
    const SplitResult r = evaluateSplit(kernel, spm, dm(64, 8));
    t.addRow({"SPM128 + C64L8 split", fmtFixed(r.cacheMissRate, 3),
              "-"});
  }
  std::cout << t
            << "\nEach row is one answer to the same question the paper "
               "asks: how do we\nspend a few hundred on-chip bytes to "
               "keep this kernel's data close?\n";
  return 0;
}
