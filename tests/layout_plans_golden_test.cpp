// Golden Section-4.1 layout plans: every field of assignConflictFree's
// answer, pinned in tests/golden/layout_plans.csv, for the paper kernels
// and the nine MPEG kernels over the Section-5 geometry range (T 16..512,
// L 4..16, S <= 8) under all four replacement policies, both allocate
// policies and B in {1, 4}. The certification may get faster; the plans
// it certifies may not change. A drift fails with the row and the first
// differing column.
//
// Regenerating (only when a layout change is *intended*):
//   MEMX_REGEN_GOLDEN=1 ./build/tests/test_layout_plans_golden
// rewrites the corpus in the source tree; commit the diff alongside the
// change that caused it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/mpeg_kernels.hpp"
#include "memx/layout/offchip_assign.hpp"
#include "memx/util/pow2_range.hpp"
#include "memx/xform/tiling.hpp"

#ifndef MEMX_GOLDEN_DIR
#error "MEMX_GOLDEN_DIR must point at tests/golden"
#endif

namespace memx {
namespace {

constexpr const char* kHeader =
    "kernel,cache,line,assoc,replacement,allocate,tiling,complete,"
    "signature,group_slots,arrays";

/// Leading columns that identify a row (everything before `complete`).
constexpr int kKeyColumns = 7;

std::vector<Kernel> corpusKernels() {
  std::vector<Kernel> kernels = paperBenchmarks();
  kernels.push_back(matrixAddKernel());
  for (WeightedKernel& w : mpegDecoderKernels()) {
    kernels.push_back(std::move(w.kernel));
  }
  return kernels;
}

/// One CSV row describing `plan`. The signature contains commas, so it
/// is quoted; the list columns use ';' and '/' separators.
std::string planRow(const Kernel& kernel, const CacheConfig& cache,
                    std::uint32_t tiling, const AssignmentPlan& plan) {
  std::ostringstream os;
  os << kernel.name << ',' << cache.sizeBytes << ',' << cache.lineBytes
     << ',' << cache.associativity << ',' << toString(cache.replacement)
     << ',' << toString(cache.allocatePolicy) << ',' << tiling << ','
     << (plan.complete ? 1 : 0) << ",\"" << plan.layout.signature()
     << "\",";
  for (std::size_t g = 0; g < plan.groupSlots.size(); ++g) {
    os << (g == 0 ? "" : ";") << plan.groupSlots[g];
  }
  os << ',';
  for (std::size_t a = 0; a < plan.arrays.size(); ++a) {
    const ArrayAssignment& arr = plan.arrays[a];
    os << (a == 0 ? "" : ";") << arr.baseAddr << '/' << arr.rowPitchBytes
       << '/' << arr.paddingBytes << '/' << (arr.conflictFree ? 1 : 0);
  }
  return os.str();
}

/// Split a row into columns, honouring double quotes.
std::vector<std::string> columns(const std::string& row) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (const char ch : row) {
    if (ch == '"') {
      quoted = !quoted;
    } else if (ch == ',' && !quoted) {
      out.emplace_back();
    } else {
      out.back() += ch;
    }
  }
  return out;
}

std::string rowKey(const std::string& row) {
  const std::vector<std::string> cols = columns(row);
  std::string key;
  for (int c = 0; c < kKeyColumns && c < static_cast<int>(cols.size());
       ++c) {
    key += cols[static_cast<std::size_t>(c)] + ',';
  }
  return key;
}

/// Every row of the corpus, in generation order.
std::vector<std::string> currentRows() {
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
      ReplacementPolicy::Random, ReplacementPolicy::TreePLRU};
  const AllocatePolicy allocs[] = {AllocatePolicy::WriteAllocate,
                                   AllocatePolicy::NoWriteAllocate};
  std::vector<std::string> rows;
  for (const Kernel& kernel : corpusKernels()) {
    for (const std::uint32_t tiling : {1u, 4u}) {
      // The probe is the traversal that will execute: the tiled nest
      // when B > 1 and the nest can be tiled, else the kernel itself.
      std::optional<Kernel> tiled;
      if (tiling > 1 && kernel.nest.depth() >= 2) {
        tiled = tile2D(kernel, tiling);
      }
      const AccessPattern probe = layoutProbePattern(tiled ? *tiled : kernel);
      for (const std::uint64_t T : pow2Range(16, 512)) {
        for (const std::uint64_t L : pow2Range(4, std::min<std::uint64_t>(16, T))) {
          for (const std::uint64_t S :
               pow2Range(1, std::min<std::uint64_t>(8, T / L))) {
            for (const ReplacementPolicy repl : policies) {
              for (const AllocatePolicy alloc : allocs) {
                CacheConfig cache;
                cache.sizeBytes = static_cast<std::uint32_t>(T);
                cache.lineBytes = static_cast<std::uint32_t>(L);
                cache.associativity = static_cast<std::uint32_t>(S);
                cache.replacement = repl;
                cache.allocatePolicy = alloc;
                const AssignmentPlan plan =
                    assignConflictFree(kernel, cache, 0, &probe);
                rows.push_back(planRow(kernel, cache, tiling, plan));
              }
            }
          }
        }
      }
    }
  }
  return rows;
}

TEST(LayoutPlansGolden, PlansMatchCorpus) {
  const std::string path =
      std::string(MEMX_GOLDEN_DIR) + "/layout_plans.csv";
  const std::vector<std::string> rows = currentRows();

  if (std::getenv("MEMX_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << kHeader << '\n';
    for (const std::string& row : rows) out << row << '\n';
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden corpus " << path
                         << " (regenerate with MEMX_REGEN_GOLDEN=1)";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_EQ(line, kHeader);
  std::map<std::string, std::string> golden;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.emplace(rowKey(line), line);
  }
  ASSERT_EQ(golden.size(), rows.size()) << "corpus shape changed";

  const std::vector<std::string> names = columns(kHeader);
  int reported = 0;
  for (const std::string& row : rows) {
    const auto it = golden.find(rowKey(row));
    ASSERT_NE(it, golden.end()) << "row missing from corpus: " << row;
    if (it->second == row) continue;
    const std::vector<std::string> want = columns(it->second);
    const std::vector<std::string> got = columns(row);
    std::size_t c = 0;
    while (c < want.size() && c < got.size() && want[c] == got[c]) ++c;
    ADD_FAILURE() << "plan drifted at " << it->first << " column "
                  << (c < names.size() ? names[c] : std::string("?"))
                  << ": golden=" << (c < want.size() ? want[c] : "")
                  << " current=" << (c < got.size() ? got[c] : "");
    if (++reported == 20) {
      FAIL() << "stopping after 20 drifted rows";
    }
  }
}

}  // namespace
}  // namespace memx
