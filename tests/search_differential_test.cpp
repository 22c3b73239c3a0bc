// Differential oracle sweep for the Pareto search engine: seeded small
// joint spaces (<= 512 genomes), exact search vs brute-force front,
// bit-identical objectives. Failures print a one-line
// `MEMX_SEARCH_DIFF repro:` that reconstructs the minimized case from
// the seed and shrink-step list alone. A second sweep checks the
// presorted non-dominated ranking against the dominator-count oracle
// on seeded objective sets of up to 300 points.
//
// MEMX_SEARCH_DIFF_CASES overrides the case count of both sweeps (the
// nightly-depth CI job runs 512; the default keeps `ctest`
// whole-seconds fast).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "memx/search/dominance.hpp"
#include "memx/check/search_diff.hpp"
#include "ranking_cases.hpp"

namespace memx::search {
namespace {

std::size_t caseCount() {
  if (const char* env = std::getenv("MEMX_SEARCH_DIFF_CASES")) {
    const unsigned long n = std::stoul(env);
    if (n > 0) return n;
  }
  return 64;
}

TEST(SearchDifferential, ExactSearchMatchesBruteForceFront) {
  const DiffSummary summary = runSearchDifferential(1, caseCount());
  EXPECT_EQ(summary.casesRun, caseCount());
  for (const std::string& failure : summary.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(SearchDifferential, RanksMatchBruteForce) {
  for (std::size_t c = 0; c < caseCount(); ++c) {
    const auto shape = static_cast<RankingShape>(c % kRankingShapes);
    const std::uint64_t seed = 1000 + c;
    const std::size_t n = static_cast<std::size_t>(seed * 7919 % 301);
    const std::vector<Objectives> points = rankingCase(shape, n, seed);
    EXPECT_EQ(nonDominatedRanks(points), bruteForceRanks(points))
        << "case " << c << ": shape " << static_cast<int>(shape) << " n "
        << n << " seed " << seed;
  }
}

TEST(SearchDifferential, ReplayReconstructsACase) {
  // The repro entry point must agree with the sweep on a passing case
  // (a failing one would have surfaced above).
  EXPECT_TRUE(replaySearchDiffCase(1, {}).ok);
  // Replaying with shrink steps applies them without blowing up, even
  // when some steps are no-ops on this case.
  const DiffResult shrunk = replaySearchDiffCase(1, {0, 1, 2, 3, 4});
  EXPECT_TRUE(shrunk.ok) << shrunk.message;
}

}  // namespace
}  // namespace memx::search
