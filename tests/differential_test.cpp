// Differential oracle sweep: seeded random cases replayed through every
// production simulation path and diffed against RefCacheSim. See
// docs/TESTING.md for the harness contract and how to reproduce a
// failing seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <utility>

#include "memx/cachesim/hierarchy.hpp"
#include "memx/check/differential.hpp"
#include "memx/check/random_gen.hpp"

namespace memx {
namespace {

/// Case count: 512 by default (64 cases per policy combination), with
/// MEMX_DIFF_CASES overriding for the short sanitizer run in CI.
std::size_t caseCount() {
  if (const char* env = std::getenv("MEMX_DIFF_CASES")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 512;
}

TEST(Differential, SixteenConsecutiveSeedsCoverEveryPolicyCombo) {
  // seed % 8 walks replacement x write, so each run of eight
  // consecutive seeds covers all eight combinations.
  for (const std::uint64_t first : {1u, 9u}) {
    std::set<std::pair<ReplacementPolicy, WritePolicy>> combos;
    for (std::uint64_t seed = first; seed < first + 8; ++seed) {
      const CacheConfig c = randomCacheConfig(seed);
      combos.insert({c.replacement, c.writePolicy});
    }
    EXPECT_EQ(combos.size(), 8u) << "seeds from " << first;
  }
}

TEST(Differential, FourConsecutiveSeedsCoverEveryGridCombo) {
  // The policy-grid path draws FIFO/TreePLRU x write-back/write-through
  // from the seed alone; any four consecutive seeds must cover all
  // four, so the default sweep exercises each combination often.
  std::set<std::pair<ReplacementPolicy, WritePolicy>> combos;
  for (std::uint64_t seed = 8; seed < 12; ++seed) {
    const CacheConfig c = randomGridCacheConfig(seed);
    EXPECT_TRUE(c.replacement == ReplacementPolicy::FIFO ||
                c.replacement == ReplacementPolicy::TreePLRU);
    combos.insert({c.replacement, c.writePolicy});
  }
  EXPECT_EQ(combos.size(), 4u);
}

TEST(Differential, GeneratedConfigsAreValid) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const DiffCase c = makeDiffCase(seed);
    EXPECT_NO_THROW(c.config.validate()) << "seed " << seed;
    EXPECT_NO_THROW(c.l2.validate()) << "seed " << seed;
    EXPECT_NO_THROW(c.grid.validate()) << "seed " << seed;
    EXPECT_GE(c.l2.lineBytes, c.config.lineBytes);
    EXPECT_GE(c.l2.sizeBytes, c.config.sizeBytes);
    EXPECT_GE(c.trace.size(), 200u) << "seed " << seed;
  }
}

TEST(Differential, SweepMatchesOracleOnAllPaths) {
  const std::size_t count = caseCount();
  const DiffSummary summary = runDifferential(1, count);
  EXPECT_EQ(summary.casesRun, count);
  for (const std::string& failure : summary.failures) {
    ADD_FAILURE() << failure;
  }
}

TEST(Differential, SweepReachesBothL2ReplaySizes) {
  // Path 4 replays the L2 on spanSizedL2: the sweep must hold both the
  // span-sized branch and the full-size fallback to the oracle.
  std::size_t spanSized = 0;
  std::size_t fullSize = 0;
  const std::size_t count = caseCount();
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    const DiffCase c = makeDiffCase(seed);
    const L1Filter filtered = filterL1(c.config, c.trace);
    ++(spanSizedL2(c.l2, filtered.l2Stream) == c.l2 ? fullSize : spanSized);
  }
  EXPECT_GT(spanSized, 0u);
  EXPECT_GT(fullSize, 0u);
}

TEST(Differential, ReplayFromSeedIsDeterministic) {
  // The repro contract: a case reconstructs from its seed alone, and a
  // prefix replay gives the same verdict every time.
  const DiffCase a = makeDiffCase(42);
  const DiffCase b = makeDiffCase(42);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "ref " << i;
  }
  EXPECT_EQ(a.config, b.config);
  EXPECT_TRUE(replayDiffCase(42, 100).ok);
  EXPECT_TRUE(replayDiffCase(42, a.trace.size()).ok);
}

TEST(Differential, ReproLineNamesSeedLengthAndPolicies) {
  const DiffCase c = makeDiffCase(17);
  const std::string line = diffCaseRepro(c, 123);
  EXPECT_NE(line.find("seed=17"), std::string::npos) << line;
  EXPECT_NE(line.find("len=123"), std::string::npos) << line;
  EXPECT_NE(line.find("cfg=" + c.config.label()), std::string::npos);
  EXPECT_NE(line.find(toString(c.config.replacement)), std::string::npos);
  EXPECT_NE(line.find("grid=" + c.grid.label()), std::string::npos);
  EXPECT_NE(line.find(toString(c.grid.replacement)), std::string::npos);
  EXPECT_NE(line.find("replayDiffCase(17, 123)"), std::string::npos);
  // Single line: failures must grep as one repro entry.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace memx
