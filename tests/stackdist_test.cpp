// Known-answer and oracle tests for the stack-distance engine: the
// OrderedStack Fenwick core, the Hill-Smith all-associativity profile
// and the policy-grid profile (the bank over both is tested in
// config_bank_test.cpp). Hand-traced expectations are pinned like
// ref_cache_sim_test.cpp; everything else is diffed against CacheSim
// or the naive reference walk (memx/check/ref_stack_dist.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/check/ref_stack_dist.hpp"
#include "memx/stackdist/all_assoc.hpp"
#include "memx/stackdist/ordered_stack.hpp"
#include "memx/stackdist/policy_grid.hpp"
#include "memx/trace/working_set.hpp"
#include "memx/util/assert.hpp"

namespace memx {
namespace {

// --- OrderedStack ---------------------------------------------------

TEST(OrderedStack, HandTracedDistances) {
  // Touch sequence a b a c b a; the LRU stack evolves as
  //   a | b a | a b | c a b | b c a | a b c
  // so the distances are: cold, cold, 1, cold, 2, 2.
  OrderedStack s;
  EXPECT_EQ(s.touch('a'), kColdDistance);
  EXPECT_EQ(s.touch('b'), kColdDistance);
  EXPECT_EQ(s.touch('a'), 1u);
  EXPECT_EQ(s.touch('c'), kColdDistance);
  EXPECT_EQ(s.touch('b'), 2u);
  EXPECT_EQ(s.touch('a'), 2u);
  EXPECT_EQ(s.uniqueLines(), 3u);
}

TEST(OrderedStack, MruReaccessIsDistanceZero) {
  OrderedStack s;
  EXPECT_EQ(s.touch(7), kColdDistance);
  EXPECT_EQ(s.touch(7), 0u);
  EXPECT_EQ(s.touch(7), 0u);
  EXPECT_EQ(s.uniqueLines(), 1u);
}

TEST(OrderedStack, CompactionPreservesDistances) {
  // initialCapacity 2 forces a tree rebuild every couple of touches;
  // distances must be indistinguishable from a large-capacity stack.
  OrderedStack tight(2);
  OrderedStack roomy(1024);
  std::mt19937_64 rng(42);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t line = rng() % 64;
    ASSERT_EQ(tight.touch(line), roomy.touch(line)) << "touch " << i;
  }
  EXPECT_EQ(tight.uniqueLines(), roomy.uniqueLines());
}

TEST(OrderedStack, CyclicSweepDistanceEqualsWorkingSetMinusOne) {
  OrderedStack s;
  for (std::uint64_t line = 0; line < 8; ++line) {
    EXPECT_EQ(s.touch(line), kColdDistance);
  }
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t line = 0; line < 8; ++line) {
      EXPECT_EQ(s.touch(line), 7u) << "round " << round;
    }
  }
}

// --- ReuseProfile (reimplemented on OrderedStack) vs the naive walk --

TEST(ReuseProfileOracle, MatchesNaiveWalkOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trace trace = randomCheckTrace(seed, 200, 800);
    for (const std::uint32_t lineBytes : {4u, 16u}) {
      const ReuseProfile fast(trace, lineBytes);
      const RefReuseProfile ref(trace, lineBytes);
      ASSERT_EQ(fast.accesses(), ref.accesses()) << "seed " << seed;
      ASSERT_EQ(fast.coldMisses(), ref.coldMisses()) << "seed " << seed;
      ASSERT_EQ(fast.uniqueLines(), ref.uniqueLines()) << "seed " << seed;
      for (std::uint64_t d = 0; d < ref.uniqueLines(); ++d) {
        ASSERT_EQ(fast.countAtDistance(d), ref.countAtDistance(d))
            << "seed " << seed << " L=" << lineBytes << " d=" << d;
      }
    }
  }
}

// --- AllAssocProfile known answers -----------------------------------

TEST(AllAssocProfile, HandTracedMissGrid) {
  // 4-byte reads touching lines 0, 1, 0, 2, 0, 4 (L = 4).
  Trace t;
  for (const std::uint64_t addr : {0u, 4u, 0u, 8u, 0u, 16u}) {
    t.push(readRef(addr, 4));
  }
  const AllAssocProfile p(t, 4, 2, 2);
  EXPECT_EQ(p.accesses(), 6u);
  EXPECT_EQ(p.reads(), 6u);
  EXPECT_EQ(p.writes(), 0u);
  EXPECT_EQ(p.lineProbes(), 6u);

  // Hand-traced LRU miss counts (see the sequence above):
  //   1 set, 1 way: only line re-accesses after no intervening touch
  //   hit; there are none -> 6 misses.
  EXPECT_EQ(p.misses(1, 1), 6u);
  //   1 set, 2 ways: the three re-accesses of line 0 at global stack
  //   distance 1 hit -> 4 misses (the cold touches).
  EXPECT_EQ(p.misses(1, 2), 4u);
  //   2 sets (even lines -> set 0, line 1 alone in set 1), 1 way: the
  //   second access of line 0 hits (distance 0 in its set) -> 5.
  EXPECT_EQ(p.misses(2, 1), 5u);
  //   2 sets, 2 ways: every re-access of line 0 hits -> cold only.
  EXPECT_EQ(p.misses(2, 2), 4u);

  // Cold misses are the infinite-distance bucket: at the deepest
  // tracked geometry only the 4 first touches miss.
  EXPECT_EQ(p.readMisses(1, 2), 4u);
  EXPECT_EQ(p.writeMisses(1, 2), 0u);
}

TEST(AllAssocProfile, MatchesCacheSimOnTheHandTrace) {
  Trace t;
  for (const std::uint64_t addr : {0u, 4u, 0u, 8u, 0u, 16u}) {
    t.push(readRef(addr, 4));
  }
  const AllAssocProfile p(t, 4, 2, 2);
  for (const std::uint32_t sets : {1u, 2u}) {
    for (const std::uint32_t assoc : {1u, 2u}) {
      CacheConfig c;
      c.lineBytes = 4;
      c.associativity = assoc;
      c.sizeBytes = 4 * sets * assoc;
      const CacheStats sim = simulateTrace(c, t);
      EXPECT_EQ(p.misses(sets, assoc), sim.misses())
          << "sets=" << sets << " ways=" << assoc;
      EXPECT_EQ(p.lineFills(sets, assoc), sim.lineFills)
          << "sets=" << sets << " ways=" << assoc;
    }
  }
}

TEST(AllAssocProfile, StraddlingReferenceProbesBothLines) {
  // A 4-byte access at address 2 spans lines 0 and 1 (L = 4). The
  // reference misses when either probe misses.
  Trace t;
  t.push(readRef(2, 4));
  t.push(readRef(2, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.accesses(), 2u);
  EXPECT_EQ(p.lineProbes(), 4u);
  // 1 way: after the first reference the cache holds line 1, so the
  // second reference's line-0 probe misses again -> both refs miss.
  EXPECT_EQ(p.misses(1, 1), 2u);
  // 2 ways: both lines resident, second reference hits.
  EXPECT_EQ(p.misses(1, 2), 1u);
  EXPECT_EQ(p.lineFills(1, 2), 2u);  // the two cold fills
  EXPECT_EQ(p.lineFills(1, 1), 4u);  // every probe refills
}

TEST(AllAssocProfile, WriteThroughMemWritesCountWriteProbes) {
  Trace t;
  t.push(writeRef(0, 4));   // 1 probe
  t.push(writeRef(2, 4));   // straddles: 2 probes
  t.push(readRef(0, 4));    // reads never write memory
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writes(), 2u);
  EXPECT_EQ(p.reads(), 1u);
  const CacheStats wt = p.stats(1, 2, WritePolicy::WriteThrough);
  EXPECT_EQ(wt.memWrites, 3u);  // one word store per write probe
  const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
  EXPECT_EQ(wb.memWrites, 0u);
  EXPECT_EQ(wb.writebacks, 0u);  // both dirty lines stay resident
  // Hit/miss accounting is write-policy independent.
  EXPECT_EQ(wt.misses(), wb.misses());
}

// --- Dirty-stack writeback known answers ----------------------------

/// Writebacks of a write-back LRU cache (1 set of `assoc` ways, L = 4)
/// simulated over `t` — the oracle every hand trace is double-checked
/// against.
std::uint64_t simWritebacks(const Trace& t, std::uint32_t assoc,
                            std::uint32_t sets = 1) {
  CacheConfig c;
  c.lineBytes = 4;
  c.associativity = assoc;
  c.sizeBytes = 4 * sets * assoc;
  c.writePolicy = WritePolicy::WriteBack;
  return simulateTrace(c, t).writebacks;
}

TEST(AllAssocProfile, WritebackOnDirtyEvictionPerAssociativity) {
  // w0 r0 w0 r4 r8 (L = 4, lines 0/1/2). Re-dirtying resident line 0
  // (write, read hit, write again) still costs exactly one writeback
  // when it is finally evicted:
  //   1 way : r4 evicts dirty line 0 (wb), r8 evicts clean line 1.
  //   2 ways: r8 evicts LRU line 0, still dirty from w0 (wb).
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, ReadAfterWriteKeepsTheDirtyBit) {
  // w0 r0 r4: the read hit must not clean line 0, so the direct-mapped
  // eviction at r4 still writes it back.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(readRef(4, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), 0u);  // 2 ways: line 0 dirty at end
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, WriteStraddlingTwoLinesDirtiesBoth) {
  // A 4-byte write at address 2 spans lines 0 and 1 (L = 4); both
  // probes dirty their line, exactly like CacheSim's per-probe loop.
  //   1 way : the straddle itself evicts dirty line 0 (probe of line 1),
  //           then r8 evicts dirty line 1 -> 2 writebacks.
  //   2 ways: r8 evicts dirty line 0, r12 evicts dirty line 1 -> 2.
  Trace t;
  t.push(writeRef(2, 4));
  t.push(readRef(8, 4));
  t.push(readRef(12, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 2u);
  EXPECT_EQ(p.writebacks(1, 2), 2u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, CleanEvictionAfterDeepReReference) {
  // w0 r4 r0 r4 r8: line 0's dirty state is per-configuration. The
  // 1-way cache writes it back at r4, refills it CLEAN at r0, and must
  // not write it back again at the second r4; the 2-way cache keeps the
  // original dirty fill resident (r0 hits) and pays its single
  // writeback only when r8 finally evicts line 0.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), 1u);
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
}

TEST(AllAssocProfile, DirtyLinesAtTraceEndAreNeverWrittenBack) {
  // w0 w4: both lines fit in 2 ways and are dirty when the trace ends;
  // CacheSim does not flush, so neither does the profile. The 1-way
  // cache did evict dirty line 0 under w4's fill.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(writeRef(4, 4));
  const AllAssocProfile p(t, 4, 1, 2);
  EXPECT_EQ(p.writebacks(1, 2), 0u);
  EXPECT_EQ(p.writebacks(1, 1), 1u);
  EXPECT_EQ(p.writebacks(1, 2), simWritebacks(t, 2));
  EXPECT_EQ(p.writebacks(1, 1), simWritebacks(t, 1));
  const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
  EXPECT_EQ(wb.writebacks, 0u);
  EXPECT_EQ(wb.memWrites, 0u);  // write-back/write-allocate: no stores
}

TEST(AllAssocProfile, StatsMatchCacheSimOnRandomTraces) {
  // The full stats() surface against the simulator over the whole
  // (sets, ways) grid, write-back and write-through, random streams.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trace trace = randomCheckTrace(seed, 200, 700);
    const std::uint32_t lineBytes = (seed % 2 == 0) ? 8u : 16u;
    const AllAssocProfile p(trace, lineBytes, 8, 4);
    for (const std::uint32_t sets : {1u, 2u, 4u, 8u}) {
      for (const std::uint32_t assoc : {1u, 2u, 4u}) {
        for (const WritePolicy wp :
             {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
          CacheConfig c;
          c.lineBytes = lineBytes;
          c.associativity = assoc;
          c.sizeBytes = lineBytes * sets * assoc;
          c.writePolicy = wp;
          const CacheStats sim = simulateTrace(c, trace);
          const CacheStats got = p.stats(sets, assoc, wp);
          ASSERT_EQ(got.reads, sim.reads);
          ASSERT_EQ(got.writes, sim.writes);
          ASSERT_EQ(got.readHits, sim.readHits)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.readMisses, sim.readMisses)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writeHits, sim.writeHits)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writeMisses, sim.writeMisses)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.lineFills, sim.lineFills)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.memWrites, sim.memWrites)
              << "seed " << seed << " " << c.label();
          ASSERT_EQ(got.writebacks, sim.writebacks)
              << "seed " << seed << " " << c.label() << " " << toString(wp);
        }
      }
    }
  }
}

TEST(AllAssocProfile, RejectsBadArguments) {
  Trace t;
  t.push(readRef(0));
  EXPECT_THROW(AllAssocProfile(t, 12, 4, 2), ContractViolation);
  EXPECT_THROW(AllAssocProfile(t, 8, 3, 2), ContractViolation);
  EXPECT_THROW(AllAssocProfile(t, 8, 4, 0), ContractViolation);

  const AllAssocProfile p(t, 8, 4, 2);
  EXPECT_THROW((void)p.misses(3, 1), ContractViolation);   // not pow2
  EXPECT_THROW((void)p.misses(8, 1), ContractViolation);   // > maxSets
  EXPECT_THROW((void)p.misses(1, 0), ContractViolation);   // ways < 1
  EXPECT_THROW((void)p.misses(1, 3), ContractViolation);   // > maxAssoc

  Trace bad;
  bad.push(MemRef{0, 0, AccessType::Read});
  EXPECT_THROW(AllAssocProfile(bad, 8, 1, 1), ContractViolation);
}

// --- AllAssocProfile slot encodings ----------------------------------
//
// A profile with maxAssoc <= 254 keeps its recency slots packed (key
// and dirty threshold in one word) until a line index outgrows 56 bits,
// then migrates to split arrays; a wider profile is split from the
// start. These cases drive the split encoding both ways.

void expectSameStats(const CacheStats& got, const CacheStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.reads, want.reads) << what;
  EXPECT_EQ(got.writes, want.writes) << what;
  EXPECT_EQ(got.readHits, want.readHits) << what;
  EXPECT_EQ(got.readMisses, want.readMisses) << what;
  EXPECT_EQ(got.writeHits, want.writeHits) << what;
  EXPECT_EQ(got.writeMisses, want.writeMisses) << what;
  EXPECT_EQ(got.lineFills, want.lineFills) << what;
  EXPECT_EQ(got.writebacks, want.writebacks) << what;
  EXPECT_EQ(got.memWrites, want.memWrites) << what;
}

/// Feed `trace` to `profile` in chunks of 1, 3, 7, 15, ... references.
void feedRagged(AllAssocProfile& profile, const Trace& trace) {
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < trace.size()) {
    const std::size_t n = std::min(step, trace.size() - pos);
    profile.feed(trace.refs().data() + pos, n);
    pos += n;
    step = step * 2 + 1;
  }
}

/// `count` random references over `lines` lines of 8 bytes from `base`:
/// reads, writes and ifetches, some line-straddling, and a share that
/// repeat the previous line (MRU re-touches, often flipping to a write).
Trace encodingTrace(std::uint64_t base, std::uint64_t lines,
                    std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> line(0, lines - 1);
  std::uniform_int_distribution<int> kind(0, 9);
  Trace t;
  std::uint64_t prev = base;
  for (std::size_t i = 0; i < count; ++i) {
    const int k = kind(rng);
    const std::uint64_t addr = k < 3 ? prev : base + line(rng) * 8;
    const AccessType type = k % 3 == 0   ? AccessType::Write
                            : k % 3 == 1 ? AccessType::Read
                                         : AccessType::Instr;
    if (k >= 8) {
      t.push(MemRef{addr + 6, 4, type});  // straddles into the next line
    } else {
      t.push(MemRef{addr, 4, type});
    }
    prev = addr;
  }
  return t;
}

TEST(AllAssocProfile, SplitEncodingMatchesCacheSimAt512Ways) {
  // 512 ways need 10-bit dirty thresholds, so the profile is split from
  // its first reference. 1536 lines against up to 512 ways gives hits at
  // every depth and dirty evictions at every way count.
  const Trace trace = encodingTrace(0, 1536, 20000, 7);
  AllAssocProfile profile(8, 1, 512);
  feedRagged(profile, trace);
  for (const std::uint32_t assoc : {1u, 2u, 64u, 256u, 512u}) {
    for (const WritePolicy wp :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      CacheConfig c;
      c.lineBytes = 8;
      c.associativity = assoc;
      c.sizeBytes = 8 * assoc;
      c.writePolicy = wp;
      expectSameStats(profile.stats(1, assoc, wp), simulateTrace(c, trace),
                      c.label() + " " + toString(wp));
    }
  }
}

TEST(AllAssocProfile, MigratedSplitPassMatchesCacheSimAtHighAddresses) {
  // Low references run packed; the first line index past 2^56 - 2
  // migrates the state to split arrays, and the split pass then takes
  // MRU re-touches (reads and writes), line-straddling references and
  // spans ending on the last byte of memory — the paths where the MRU
  // cascade skips the finer set counts.
  Trace trace = encodingTrace(0, 96, 800, 11);
  trace.append(encodingTrace(std::uint64_t{1} << 62, 96, 1500, 12));
  trace.append(encodingTrace(0, 96, 400, 13));
  // The highest straddle of this window ends 14 bytes below the top.
  trace.append(encodingTrace(0xffffffffffffffffull - 783, 96, 1500, 14));
  trace.push(writeRef(0xfffffffffffffffcull, 4));
  trace.push(writeRef(0xfffffffffffffffcull, 4));
  trace.push(readRef(0xfffffffffffffffaull, 4));

  AllAssocProfile profile(8, 16, 4);
  feedRagged(profile, trace);
  for (const std::uint32_t sets : {1u, 2u, 4u, 16u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      for (const WritePolicy wp :
           {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
        CacheConfig c;
        c.lineBytes = 8;
        c.associativity = assoc;
        c.sizeBytes = 8 * sets * assoc;
        c.writePolicy = wp;
        expectSameStats(profile.stats(sets, assoc, wp),
                        simulateTrace(c, trace),
                        c.label() + " " + toString(wp));
      }
    }
  }
}

TEST(AllAssocProfile, TopLineIndexThrowsRatherThanReadAsResident) {
  // With 1-byte lines the last byte of memory is line 2^64 - 1, whose
  // key (line + 1) would wrap to the empty marker and read as an MRU
  // hit. The profile refuses it instead of answering wrongly.
  Trace t;
  t.push(readRef(0xffffffffffffffffull, 1));
  EXPECT_THROW(AllAssocProfile(t, 1, 1, 1), ContractViolation);
  EXPECT_THROW(AllAssocProfile(t, 1, 1, 512), ContractViolation);
  // One line below it is an ordinary cold miss.
  Trace below;
  below.push(readRef(0xfffffffffffffffeull, 1));
  EXPECT_EQ(AllAssocProfile(below, 1, 1, 1).misses(1, 1), 1u);
}

// --- PolicyGridProfile known answers ---------------------------------

/// CacheStats of a `policy` cache (`sets` x `assoc`, L = 4) simulated
/// over `t` — the oracle every grid hand trace is double-checked
/// against.
CacheStats simPolicy(const Trace& t, ReplacementPolicy policy,
                     std::uint32_t sets, std::uint32_t assoc,
                     WritePolicy wp = WritePolicy::WriteBack) {
  CacheConfig c;
  c.lineBytes = 4;
  c.associativity = assoc;
  c.sizeBytes = 4 * sets * assoc;
  c.replacement = policy;
  c.writePolicy = wp;
  return simulateTrace(c, t);
}

/// One 4-byte read per entry, entry i touching line `lines[i]` (L = 4).
Trace lineTrace(std::initializer_list<std::uint64_t> lines) {
  Trace t;
  for (const std::uint64_t line : lines) t.push(readRef(line * 4, 4));
  return t;
}

TEST(PolicyGridProfile, FifoEvictionOrderIgnoresReReference) {
  // Lines A=0 B=1 C=2 in 1 set of 2 ways, sequence A B A C A. The A
  // re-reference does not refresh A's fill stamp, so C still evicts A
  // (the oldest fill) and the final A misses again: 4 FIFO misses.
  // LRU protects the re-referenced A and evicts B instead: 3 misses.
  const Trace t = lineTrace({0, 1, 0, 2, 0});
  const PolicyGridProfile fifo(t, ReplacementPolicy::FIFO, 4, 1, 2);
  EXPECT_EQ(fifo.accesses(), 5u);
  EXPECT_EQ(fifo.misses(1, 2), 4u);
  EXPECT_EQ(fifo.misses(1, 2),
            simPolicy(t, ReplacementPolicy::FIFO, 1, 2).misses());
  const AllAssocProfile lru(t, 4, 1, 2);
  EXPECT_EQ(lru.misses(1, 2), 3u);
}

TEST(PolicyGridProfile, PinnedBeladyAnomalyMoreWaysMoreMisses) {
  // Bélády's anomaly, pinned: FIFO over line sequence 3 4 1 2 0 3.
  // Both geometries hold four lines, yet the 2-set x 2-way cache takes
  // 5 misses while the fully associative 1-set x 4-way cache takes 6
  // (its round-robin cursor evicts line 3 under the fill of line 0, so
  // the final re-access of 3 misses; the split cache keeps 3 resident
  // in set 1). More ways, more misses at fixed capacity — FIFO grid
  // cells are not inclusive, which is exactly why PolicyGridProfile
  // simulates every cell instead of reading a Mattson histogram, and
  // why no "bigger cell hits => smaller cell hits" shortcut is legal.
  const Trace t = lineTrace({3, 4, 1, 2, 0, 3});
  const PolicyGridProfile p(t, ReplacementPolicy::FIFO, 4, 2, 4);
  EXPECT_EQ(p.misses(2, 2), 5u);
  EXPECT_EQ(p.misses(1, 4), 6u);
  EXPECT_EQ(p.misses(2, 2),
            simPolicy(t, ReplacementPolicy::FIFO, 2, 2).misses());
  EXPECT_EQ(p.misses(1, 4),
            simPolicy(t, ReplacementPolicy::FIFO, 1, 4).misses());
}

TEST(PolicyGridProfile, PlruTwoWaysDegeneratesToLru) {
  // A single tree bit over 2 ways is precise LRU: on A B A C A the
  // re-referenced A survives (3 misses, like AllAssocProfile), unlike
  // FIFO's 4 in FifoEvictionOrderIgnoresReReference.
  const Trace t = lineTrace({0, 1, 0, 2, 0});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 2);
  EXPECT_EQ(plru.misses(1, 2), 3u);
  EXPECT_EQ(plru.misses(1, 2),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 2).misses());
  const AllAssocProfile lru(t, 4, 1, 2);
  EXPECT_EQ(lru.misses(1, 2), plru.misses(1, 2));
}

TEST(PolicyGridProfile, PlruFourWayTreeBitFlips) {
  // A B C D A E B C in 1 set of 4 ways, tree bits hand-walked with
  // CacheSim's lo/hi/mid layout (root = bit 0, left child = bit 1,
  // right child = bit 2; a set bit points right, away from the touch):
  //   A miss w0 -> 011, B miss w1 -> 001, C miss w2 -> 100,
  //   D miss w3 -> 000, A hit w0 -> 011 (root now points right),
  //   E miss: root right, bit 2 clear -> victim w2 evicts C (LRU would
  //   evict B; FIFO would evict A), fill E -> 110,
  //   B hit w1 -> 101, C miss: root right, bit 2 set -> victim w3
  //   evicts D, fill C -> 000.
  // 6 misses, 2 hits — a count that separates tree-PLRU (6) from both
  // FIFO (5) and true LRU (7) on the same sequence.
  const Trace t = lineTrace({0, 1, 2, 3, 0, 4, 1, 2});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 4);
  EXPECT_EQ(plru.misses(1, 4), 6u);
  EXPECT_EQ(plru.misses(1, 4),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 4).misses());
  const PolicyGridProfile fifo(t, ReplacementPolicy::FIFO, 4, 1, 4);
  EXPECT_EQ(fifo.misses(1, 4), 5u);
  const AllAssocProfile lru(t, 4, 1, 4);
  EXPECT_EQ(lru.misses(1, 4), 7u);
}

TEST(PolicyGridProfile, PlruEightWayTreeBitFlips) {
  // Three tree levels: lines 0..7 cold-fill ways 0..7, then
  //   0 hit w0 (root and both level-1/2 bits on its path point right),
  //   8 miss: victim walk crosses the root into the upper half and
  //     evicts line 4 from w4,
  //   4 miss: w4's fill pointed the root left again, so the walk stays
  //     in the lower half and evicts line 2 from w2,
  //   9 miss: evicts line 6 from w6.
  // 11 misses, 1 hit (hand-walked against CacheSim's exact tree).
  const Trace t = lineTrace({0, 1, 2, 3, 4, 5, 6, 7, 0, 8, 4, 9});
  const PolicyGridProfile plru(t, ReplacementPolicy::TreePLRU, 4, 1, 8);
  EXPECT_EQ(plru.accesses(), 12u);
  EXPECT_EQ(plru.misses(1, 8), 11u);
  EXPECT_EQ(plru.misses(1, 8),
            simPolicy(t, ReplacementPolicy::TreePLRU, 1, 8).misses());
}

TEST(PolicyGridProfile, DirtyEvictionWritebackPerPolicy) {
  // w0 r0 w0 r4 r8 in 1 set of 2 ways. Re-dirtying resident line 0
  // through the MRU fast path (write, read hit, write again) must cost
  // exactly one writeback when r8's fill finally evicts it — for both
  // grid policies, matching the write-back simulator; the 1-way column
  // pays one writeback at r4 and evicts clean line 1 at r8.
  Trace t;
  t.push(writeRef(0, 4));
  t.push(readRef(0, 4));
  t.push(writeRef(0, 4));
  t.push(readRef(4, 4));
  t.push(readRef(8, 4));
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU}) {
    const PolicyGridProfile p(t, policy, 4, 1, 2);
    EXPECT_EQ(p.writebacks(1, 1), 1u) << toString(policy);
    EXPECT_EQ(p.writebacks(1, 2), 1u) << toString(policy);
    EXPECT_EQ(p.writebacks(1, 1), simPolicy(t, policy, 1, 1).writebacks);
    EXPECT_EQ(p.writebacks(1, 2), simPolicy(t, policy, 1, 2).writebacks);
    const CacheStats wb = p.stats(1, 2, WritePolicy::WriteBack);
    EXPECT_EQ(wb.writebacks, 1u) << toString(policy);
    EXPECT_EQ(wb.memWrites, 0u) << toString(policy);
    // Write-through never writes back; one word store per write probe.
    const CacheStats wt = p.stats(1, 2, WritePolicy::WriteThrough);
    EXPECT_EQ(wt.writebacks, 0u) << toString(policy);
    EXPECT_EQ(wt.memWrites, 2u) << toString(policy);
    EXPECT_EQ(wt.misses(), wb.misses()) << toString(policy);
  }
}

TEST(PolicyGridProfile, ChunkedFeedIsBitIdenticalToOnePass) {
  // Cell state persists across feed() calls, so any chunking — even
  // one that lands mid-straddle — matches a whole-trace pass.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU}) {
    const Trace trace = randomCheckTrace(11, 150, 600);
    const PolicyGridProfile whole(trace, policy, 8, 4, 4);
    PolicyGridProfile chunked(policy, 8, 4, 4);
    std::size_t fed = 0;
    std::size_t chunk = 1;
    while (fed < trace.size()) {
      const std::size_t n = std::min(chunk, trace.size() - fed);
      chunked.feed(trace.refs().data() + fed, n);
      fed += n;
      chunk = chunk * 2 + 1;
    }
    for (const std::uint32_t sets : {1u, 2u, 4u}) {
      for (const std::uint32_t assoc : {1u, 2u, 4u}) {
        ASSERT_EQ(chunked.misses(sets, assoc), whole.misses(sets, assoc))
            << toString(policy) << " sets=" << sets << " ways=" << assoc;
        ASSERT_EQ(chunked.writebacks(sets, assoc),
                  whole.writebacks(sets, assoc))
            << toString(policy) << " sets=" << sets << " ways=" << assoc;
      }
    }
  }
}

TEST(PolicyGridProfile, RestrictedCellsMatchFullGridAndGuardTheRest) {
  // Cells are independent (no inclusion — see the pinned anomaly
  // above), so a pass restricted to the cells a bank queries must be
  // bit-identical to the full lattice on those cells; the masked-off
  // cells are never simulated and their accessors enforce it.
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::FIFO, ReplacementPolicy::TreePLRU}) {
    const Trace trace = randomCheckTrace(13, 150, 600);
    const PolicyGridProfile whole(trace, policy, 8, 8, 4);
    PolicyGridProfile narrow(policy, 8, 8, 4);
    // A diagonal plus one corner — the shape sweeps actually query.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> queried = {
        {1, 1}, {2, 2}, {4, 4}, {8, 1}};
    narrow.restrictCells(queried);
    EXPECT_EQ(narrow.cellCount(), 4u);
    EXPECT_EQ(whole.cellCount(), 12u);
    narrow.feed(trace);
    for (const auto& [sets, ways] : queried) {
      ASSERT_EQ(narrow.misses(sets, ways), whole.misses(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
      ASSERT_EQ(narrow.lineFills(sets, ways), whole.lineFills(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
      ASSERT_EQ(narrow.writebacks(sets, ways), whole.writebacks(sets, ways))
          << toString(policy) << " sets=" << sets << " ways=" << ways;
    }
    // Unrestricted-pass invariants that do not depend on cells.
    EXPECT_EQ(narrow.accesses(), whole.accesses());
    EXPECT_EQ(narrow.lineProbes(), whole.lineProbes());
    // A masked-off cell was never simulated; querying it is a contract
    // violation, not a silent zero.
    EXPECT_THROW((void)narrow.misses(1, 2), ContractViolation);
    EXPECT_THROW((void)narrow.stats(2, 4, WritePolicy::WriteBack),
                 ContractViolation);
  }

  // The restriction must precede the first feed (cell state cannot be
  // reconstructed mid-trace), the list must be non-empty, and every
  // listed cell must lie inside the profiled grid.
  PolicyGridProfile late(ReplacementPolicy::FIFO, 8, 4, 2);
  Trace t;
  t.push(readRef(0));
  late.feed(t);
  EXPECT_THROW(late.restrictCells({{1, 1}}), ContractViolation);
  PolicyGridProfile fresh(ReplacementPolicy::FIFO, 8, 4, 2);
  EXPECT_THROW(fresh.restrictCells({}), ContractViolation);
  EXPECT_THROW(fresh.restrictCells({{8, 1}}), ContractViolation);
  EXPECT_THROW(fresh.restrictCells({{3, 1}}), ContractViolation);
}

TEST(PolicyGridProfile, RejectsBadArguments) {
  Trace t;
  t.push(readRef(0));
  using PGP = PolicyGridProfile;
  const ReplacementPolicy fifo = ReplacementPolicy::FIFO;
  EXPECT_THROW(PGP(t, ReplacementPolicy::LRU, 8, 4, 2), ContractViolation);
  EXPECT_THROW(PGP(t, fifo, 12, 4, 2), ContractViolation);  // L not pow2
  EXPECT_THROW(PGP(t, fifo, 8, 3, 2), ContractViolation);   // sets not pow2
  EXPECT_THROW(PGP(t, fifo, 8, 4, 0), ContractViolation);
  EXPECT_THROW(PGP(t, fifo, 8, 4, 128), ContractViolation);  // > 64 ways

  const PGP p(t, fifo, 8, 4, 2);
  EXPECT_THROW((void)p.misses(3, 1), ContractViolation);   // not pow2
  EXPECT_THROW((void)p.misses(8, 1), ContractViolation);   // > maxSets
  EXPECT_THROW((void)p.misses(1, 0), ContractViolation);   // ways < 1
  EXPECT_THROW((void)p.misses(1, 3), ContractViolation);   // > maxAssoc

  Trace bad;
  bad.push(MemRef{0, 0, AccessType::Read});
  EXPECT_THROW(PGP(bad, fifo, 8, 1, 1), ContractViolation);
}

}  // namespace
}  // namespace memx
