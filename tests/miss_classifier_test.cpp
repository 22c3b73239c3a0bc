#include <gtest/gtest.h>

#include "memx/cachesim/miss_classifier.hpp"
#include "memx/trace/generators.hpp"

namespace memx {
namespace {

CacheConfig dm(std::uint32_t size, std::uint32_t line) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  return c;
}

TEST(MissClassifier, FirstTouchIsCompulsory) {
  const MissBreakdown b = classifyMisses(dm(64, 8), stridedTrace(0, 8, 8));
  EXPECT_EQ(b.compulsory, 8u);
  EXPECT_EQ(b.capacity, 0u);
  EXPECT_EQ(b.conflict, 0u);
}

TEST(MissClassifier, RepeatAccessesHit) {
  Trace t = stridedTrace(0, 4, 8);
  t.append(stridedTrace(0, 4, 8));
  const MissBreakdown b = classifyMisses(dm(64, 8), t);
  EXPECT_EQ(b.compulsory, 4u);
  EXPECT_EQ(b.hits, 4u);
}

TEST(MissClassifier, PingPongIsConflict) {
  // Two lines aliasing in a direct-mapped cache but fitting a
  // fully-associative one: pure conflict misses after the cold pair.
  const Trace t = pingPongTrace(0, 64, 20, 0);
  const MissBreakdown b = classifyMisses(dm(64, 8), t);
  EXPECT_EQ(b.compulsory, 2u);
  EXPECT_EQ(b.capacity, 0u);
  EXPECT_EQ(b.conflict, 38u);
  EXPECT_EQ(b.hits, 0u);
}

TEST(MissClassifier, CyclicOversizedWorkingSetIsCapacity) {
  // Working set of 2x the cache, fully-associative shadow also thrashes:
  // misses beyond the cold ones are capacity misses for the FA-missing
  // part.
  const Trace t = loopingTrace(0, 32, 4, 4);  // 128 B set, 64 B cache
  const MissBreakdown b = classifyMisses(dm(64, 8), t);
  EXPECT_EQ(b.compulsory, 16u);
  EXPECT_GT(b.capacity, 0u);
  EXPECT_EQ(b.accesses, 128u);
  EXPECT_EQ(b.misses() + b.hits, b.accesses);
}

TEST(MissClassifier, BreakdownSumsToTargetMisses) {
  const Trace t = randomTrace(0, 2048, 3000, 5);
  MissClassifier cls(dm(128, 16));
  cls.run(t);
  EXPECT_EQ(cls.breakdown().misses(), cls.targetStats().misses());
  EXPECT_EQ(cls.breakdown().hits, cls.targetStats().hits());
}

TEST(MissClassifier, ConflictRateZeroWhenFullyAssociative) {
  CacheConfig c = dm(64, 8);
  c.associativity = 8;  // target == shadow
  const Trace t = randomTrace(0, 1024, 2000, 11);
  const MissBreakdown b = classifyMisses(c, t);
  EXPECT_EQ(b.conflict, 0u);
}

TEST(MissClassifier, ConflictRateComputed) {
  const Trace t = pingPongTrace(0, 64, 10, 0);
  const MissBreakdown b = classifyMisses(dm(64, 8), t);
  EXPECT_NEAR(b.conflictRate(), 18.0 / 20.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.missRate(), 1.0);
}

TEST(FullyAssocLru, HandTracedLruOrder) {
  // Two lines of capacity: touching 0 makes 1 the LRU victim of 2.
  FullyAssocLru twin(dm(16, 8));
  EXPECT_FALSE(twin.access(0, 0));
  EXPECT_FALSE(twin.access(1, 1));
  EXPECT_TRUE(twin.access(0, 0));
  EXPECT_FALSE(twin.access(2, 2));  // evicts 1
  EXPECT_TRUE(twin.access(0, 0));
  EXPECT_FALSE(twin.access(1, 1));  // evicts 2
  EXPECT_TRUE(twin.access(0, 0));
  EXPECT_FALSE(twin.access(2, 2));  // evicts 1
}

TEST(FullyAssocLru, StraddlingAccessHitsOnlyWhenEveryLineHits) {
  FullyAssocLru twin(dm(32, 8));
  EXPECT_FALSE(twin.access(0, 0));
  EXPECT_FALSE(twin.access(0, 1));  // line 1 misses
  EXPECT_TRUE(twin.access(0, 1));
}

TEST(FullyAssocLru, EvictionKeepsCollidingLinesFindable) {
  // Many lines cycle through a small table so probe chains wrap and
  // backward-shift deletion runs on every fill; a line just touched
  // must always hit.
  FullyAssocLru twin(dm(32, 4));  // 8 lines
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t line = (i * 2654435761u) % 61;
    (void)twin.access(line, line);
    ASSERT_TRUE(twin.access(line, line)) << i;
  }
}

TEST(ConflictCounter, CountsStopAtTheBound) {
  const Trace t = pingPongTrace(0, 64, 20, 0);  // 38 conflicts
  EXPECT_EQ(countConflicts(dm(64, 8), t, ~std::uint64_t{0}), 38u);
  EXPECT_EQ(countConflicts(dm(64, 8), t, 38), 38u);
  EXPECT_EQ(countConflicts(dm(64, 8), t, 5), 5u);
  EXPECT_EQ(countConflicts(dm(64, 8), t, 0), 0u);
}

TEST(ConflictCounter, MatchesClassifierOnRandomTraces) {
  for (const std::uint64_t seed : {3u, 7u, 11u}) {
    const Trace t = randomTrace(0, 2048, 3000, seed);
    for (const std::uint32_t ways : {1u, 2u, 4u}) {
      CacheConfig c = dm(256, 16);
      c.associativity = ways;
      EXPECT_EQ(countConflicts(c, t, ~std::uint64_t{0}),
                classifyMisses(c, t).conflict)
          << "seed " << seed << " ways " << ways;
    }
  }
}

}  // namespace
}  // namespace memx
