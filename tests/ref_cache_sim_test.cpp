// Known-answer tests for the RefCacheSim oracle itself. The oracle is
// the trusted side of the differential harness, so its behaviour is
// pinned here by hand-computed sequences, not by the simulator it
// exists to check.
#include <gtest/gtest.h>

#include "memx/check/ref_cache_sim.hpp"

namespace memx {
namespace {

CacheConfig config(std::uint32_t size, std::uint32_t line,
                   std::uint32_t assoc,
                   ReplacementPolicy repl = ReplacementPolicy::LRU,
                   WritePolicy write = WritePolicy::WriteBack) {
  CacheConfig c;
  c.sizeBytes = size;
  c.lineBytes = line;
  c.associativity = assoc;
  c.replacement = repl;
  c.writePolicy = write;
  return c;
}

TEST(RefCacheSim, DirectMappedConflict) {
  // 2 sets of 8-byte lines. Addresses 0 and 16 share set 0 and evict
  // each other; address 8 lives alone in set 1.
  RefCacheSim sim(config(16, 8, 1));
  EXPECT_FALSE(sim.access(readRef(0)).hit);   // fill set 0
  EXPECT_FALSE(sim.access(readRef(8)).hit);   // fill set 1
  EXPECT_TRUE(sim.access(readRef(0)).hit);
  EXPECT_FALSE(sim.access(readRef(16)).hit);  // evicts 0
  EXPECT_FALSE(sim.access(readRef(0)).hit);   // evicts 16
  EXPECT_TRUE(sim.access(readRef(8)).hit);
  EXPECT_EQ(sim.stats().reads, 6u);
  EXPECT_EQ(sim.stats().readHits, 2u);
  EXPECT_EQ(sim.stats().readMisses, 4u);
  EXPECT_EQ(sim.stats().lineFills, 4u);
}

TEST(RefCacheSim, LruEvictsLeastRecentlyUsed) {
  // Fully associative, 2 ways. Touch A, B, re-touch A, then C: B goes.
  RefCacheSim sim(config(16, 8, 2));
  sim.access(readRef(0));    // A
  sim.access(readRef(8));    // B
  sim.access(readRef(0));    // A again
  sim.access(readRef(16));   // C evicts B
  EXPECT_TRUE(sim.access(readRef(0)).hit);
  EXPECT_FALSE(sim.access(readRef(8)).hit);
}

TEST(RefCacheSim, FifoEvictsOldestFill) {
  // Same sequence as above, but FIFO evicts A (the older fill) even
  // though it was re-touched.
  RefCacheSim sim(config(16, 8, 2, ReplacementPolicy::FIFO));
  sim.access(readRef(0));    // A
  sim.access(readRef(8));    // B
  sim.access(readRef(0));    // A again (does not refresh FIFO age)
  sim.access(readRef(16));   // C evicts A
  EXPECT_FALSE(sim.access(readRef(0)).hit);
  // A's refill evicted B (the oldest remaining fill, despite the
  // re-touch); B's refill in turn evicts C, and A stays resident.
  EXPECT_FALSE(sim.access(readRef(8)).hit);
  EXPECT_TRUE(sim.access(readRef(0)).hit);
}

TEST(RefCacheSim, TreePlruEvictsAwayFromRecentTouches) {
  // 4-way single set, fill ways 0..3 in order: the tree then points at
  // way 0 (least recently touched half of each subtree).
  RefCacheSim sim(config(32, 8, 4, ReplacementPolicy::TreePLRU));
  sim.access(readRef(0));
  sim.access(readRef(8));
  sim.access(readRef(16));
  sim.access(readRef(24));
  sim.access(readRef(32));  // miss, must evict way 0 (line 0)
  EXPECT_FALSE(sim.access(readRef(0)).hit);
  EXPECT_TRUE(sim.access(readRef(24)).hit);
}

TEST(RefCacheSim, WriteBackTracksDirtyEvictions) {
  RefCacheSim sim(config(8, 8, 1));  // one line
  sim.access(writeRef(0));           // fill + dirty
  const RefAccessOutcome out = sim.access(readRef(8));  // evicts dirty 0
  EXPECT_EQ(out.writebacks, 1u);
  ASSERT_EQ(out.evictedDirtyLines.size(), 1u);
  EXPECT_EQ(out.evictedDirtyLines[0], 0u);
  EXPECT_EQ(sim.stats().writebacks, 1u);
  EXPECT_EQ(sim.stats().memWrites, 0u);
}

TEST(RefCacheSim, WriteThroughSendsEveryWriteToMemory) {
  RefCacheSim sim(config(8, 8, 1, ReplacementPolicy::LRU,
                         WritePolicy::WriteThrough));
  sim.access(writeRef(0));  // miss: allocate, then write through
  sim.access(writeRef(0));  // hit: write through again
  sim.access(readRef(8));   // evicts line 0 - clean, no writeback
  EXPECT_EQ(sim.stats().memWrites, 2u);
  EXPECT_EQ(sim.stats().writebacks, 0u);
}

TEST(RefCacheSim, StraddlingAccessCountsOnceButFillsTwice) {
  RefCacheSim sim(config(32, 8, 4));
  const RefAccessOutcome out = sim.access(readRef(6, 4));  // lines 0 and 1
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.fills, 2u);
  EXPECT_EQ(sim.stats().reads, 1u);
  EXPECT_EQ(sim.stats().readMisses, 1u);
  EXPECT_EQ(sim.stats().lineFills, 2u);
  EXPECT_TRUE(sim.access(readRef(6, 4)).hit);
}

TEST(RefCacheSim, InstrBehavesLikeReadAndNeverDirties) {
  RefCacheSim sim(config(8, 8, 1));
  sim.access(instrRef(0));
  EXPECT_EQ(sim.stats().reads, 1u);
  EXPECT_EQ(sim.stats().writes, 0u);
  const RefAccessOutcome out = sim.access(readRef(8));  // evict line 0
  EXPECT_EQ(out.writebacks, 0u);
}

TEST(RefCacheSim, ResetClearsContentsAndStats) {
  RefCacheSim sim(config(16, 8, 2));
  sim.access(writeRef(0));
  sim.reset();
  EXPECT_EQ(sim.stats().accesses(), 0u);
  EXPECT_FALSE(sim.access(readRef(0)).hit);  // cold again
  EXPECT_EQ(sim.stats().writebacks, 0u);     // dirty state gone
}

TEST(RefCacheSim, HierarchyAbsorbsDirtyVictims) {
  // L1: one 8-byte line; L2: four lines. A dirty L1 victim must land in
  // the L2, not in main memory.
  const CacheConfig l1 = config(8, 8, 1);
  const CacheConfig l2 = config(32, 8, 4);
  Trace t;
  t.push(writeRef(0));
  t.push(readRef(8));   // evicts dirty 0 into L2
  t.push(readRef(0));   // L1 miss, L2 hit
  const RefHierarchyStats stats = refSimulateHierarchy(l1, l2, t);
  EXPECT_EQ(stats.l2.writebacks, 0u);
  EXPECT_EQ(stats.l2.writeHits + stats.l2.writeMisses, 1u);
  EXPECT_EQ(stats.l2.readHits, 1u);  // the refetch of line 0
}

}  // namespace
}  // namespace memx
