#include "memx/check/differential.hpp"

#include <algorithm>
#include <sstream>

#include "memx/cachesim/cache_sim.hpp"
#include "memx/cachesim/fully_assoc_lru.hpp"
#include "memx/cachesim/hierarchy.hpp"
#include "memx/cachesim/miss_classifier.hpp"
#include "memx/check/random_gen.hpp"
#include "memx/check/ref_cache_sim.hpp"
#include "memx/core/config_bank.hpp"

namespace memx {

namespace {

/// First `len` references of `trace` as an independent trace.
Trace prefixOf(const Trace& trace, std::size_t len) {
  len = std::min(len, trace.size());
  std::vector<MemRef> refs(trace.refs().begin(),
                           trace.refs().begin() +
                               static_cast<std::ptrdiff_t>(len));
  return Trace(std::move(refs));
}

}  // namespace

std::string diffCaseRepro(const DiffCase& c, std::size_t len) {
  std::ostringstream os;
  os << "MEMX_DIFF repro: seed=" << c.seed << " len=" << len
     << " cfg=" << c.config.label()
     << " repl=" << toString(c.config.replacement)
     << " write=" << toString(c.config.writePolicy)
     << " l2=" << c.l2.label()
     << " lru=" << c.lru.label()
     << " grid=" << c.grid.label()
     << "/" << toString(c.grid.replacement)
     << " | rerun: memx::replayDiffCase(" << c.seed << ", " << len << ")";
  return os.str();
}

namespace {

/// Describe the first differing CacheStats field, or "" when equal.
std::string diffStats(const std::string& path, const CacheStats& oracle,
                      const CacheStats& actual) {
  const struct {
    const char* name;
    std::uint64_t CacheStats::*field;
  } fields[] = {
      {"reads", &CacheStats::reads},
      {"writes", &CacheStats::writes},
      {"readHits", &CacheStats::readHits},
      {"readMisses", &CacheStats::readMisses},
      {"writeHits", &CacheStats::writeHits},
      {"writeMisses", &CacheStats::writeMisses},
      {"lineFills", &CacheStats::lineFills},
      {"writebacks", &CacheStats::writebacks},
      {"memWrites", &CacheStats::memWrites},
  };
  for (const auto& f : fields) {
    if (oracle.*(f.field) != actual.*(f.field)) {
      std::ostringstream os;
      os << path << "." << f.name << ": oracle=" << oracle.*(f.field)
         << " actual=" << actual.*(f.field);
      return os.str();
    }
  }
  return {};
}

/// Core diff of every engine path on `trace`; returns the first
/// mismatch description, or "" when all paths agree with the oracle.
std::string diffAllPaths(const DiffCase& c, const Trace& trace) {
  // Oracle statistics for the primary config.
  const CacheStats oracle = refSimulateTrace(c.config, trace);

  // Path 1: CacheSim bulk fast path (run -> accessLinesFast).
  {
    CacheSim sim(c.config);
    sim.run(trace);
    const std::string d = diffStats("CacheSim.run", oracle, sim.stats());
    if (!d.empty()) return d;
  }

  // Path 2: CacheSim per-access outcome path, diffed per reference
  // (hit flag, fills, writebacks and the evicted dirty-line list).
  {
    CacheSim sim(c.config);
    RefCacheSim ref(c.config);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const AccessOutcome got = sim.access(trace[i]);
      const RefAccessOutcome want = ref.access(trace[i]);
      if (got.hit != want.hit || got.fills != want.fills ||
          got.writebacks != want.writebacks ||
          got.evictedDirtyLines != want.evictedDirtyLines) {
        std::ostringstream os;
        os << "CacheSim.access outcome at ref " << i
           << ": oracle(hit=" << want.hit << " fills=" << want.fills
           << " wb=" << want.writebacks << ") actual(hit=" << got.hit
           << " fills=" << got.fills << " wb=" << got.writebacks << ")";
        return os.str();
      }
    }
    const std::string d =
        diffStats("CacheSim.access", ref.stats(), sim.stats());
    if (!d.empty()) return d;
  }

  // Path 3: MultiSim bank — primary, its L2 companion and a
  // direct-mapped sibling share one pass; every member must match a
  // fresh oracle run.
  {
    CacheConfig sibling = c.config;
    sibling.associativity = 1;
    const std::vector<CacheConfig> bank = {c.config, c.l2, sibling};
    ConfigBank multi(SweepBackend::MultiSim, bank);
    multi.run(trace);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const std::string d =
          diffStats("MultiSimBank[" + std::to_string(i) + "]",
                    refSimulateTrace(bank[i], trace), multi.stats(i));
      if (!d.empty()) return d;
    }
  }

  // Path 4: the sweep's two-level path (one L1 filter pass, its
  // recorded L2 stream replayed through a MultiSim ConfigBank) against
  // the oracle's re-statement of the inclusive protocol.
  {
    const RefHierarchyStats want =
        refSimulateHierarchy(c.config, c.l2, trace);
    const L1Filter filtered = filterL1(c.config, trace);
    ConfigBank bank(SweepBackend::MultiSim, {c.l2});
    bank.run(filtered.l2Stream);
    std::string d = diffStats("L1Filter.l1", want.l1, filtered.l1);
    if (d.empty()) d = diffStats("L2Bank", want.l2, bank.stats(0));
    if (!d.empty()) return d;
  }

  // Path 5 is retired; the paths after it keep their numbers.

  // Path 6: stack-distance bank. c.lru is always in the StackDist
  // engine's domain; its fully-associative and direct-mapped siblings ride in
  // the same bank so one profile is read at three (sets, ways) corners,
  // and a write-back sibling guarantees every case exercises the
  // dirty-stack accounting even when c.lru drew write-through. Every
  // field must match BOTH the oracle and the production simulator
  // exactly — including write-back `writebacks` (dirty-stack
  // accounting) and write-through memWrites; nothing is masked.
  {
    CacheConfig fa = c.lru;
    fa.associativity = fa.numLines();
    CacheConfig dm = c.lru;
    dm.associativity = 1;
    CacheConfig wb = c.lru;
    wb.writePolicy = WritePolicy::WriteBack;
    const std::vector<CacheConfig> bank = {c.lru, fa, dm, wb};
    ConfigBank stackBank(SweepBackend::StackDist, bank);
    stackBank.run(trace);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats oracleStats = refSimulateTrace(bank[i], trace);
      const CacheStats simStats = simulateTrace(bank[i], trace);
      const std::string path = "StackDist[" + std::to_string(i) + "]";
      std::string d =
          diffStats(path + " vs RefCacheSim", oracleStats,
                    stackBank.stats(i));
      if (d.empty()) {
        d = diffStats(path + " vs CacheSim.run", simStats,
                      stackBank.stats(i));
      }
      if (!d.empty()) return d;
    }
  }

  // Path 7: policy-grid bank. c.grid draws FIFO or tree-PLRU (both
  // write policies across seeds), so this StackDist bank lands on the
  // PolicyGridProfile engine instead of the Hill–Smith profile. The
  // same sibling scheme as path 6 reads the single pass at several
  // (sets, ways) corners — fully-associative (capped at the grid's
  // 64-way limit), direct-mapped and a forced write-back sibling that
  // exercises the per-cell dirty masks even when c.grid drew
  // write-through — and every member must match BOTH the oracle and the
  // production simulator field for field.
  {
    CacheConfig fa = c.grid;
    fa.associativity = std::min(fa.numLines(), 64u);
    CacheConfig dm = c.grid;
    dm.associativity = 1;
    CacheConfig wb = c.grid;
    wb.writePolicy = WritePolicy::WriteBack;
    const std::vector<CacheConfig> bank = {c.grid, fa, dm, wb};
    ConfigBank gridBank(SweepBackend::StackDist, bank);
    gridBank.run(trace);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      const CacheStats oracleStats = refSimulateTrace(bank[i], trace);
      const CacheStats simStats = simulateTrace(bank[i], trace);
      const std::string path = "PolicyGrid[" + std::to_string(i) + "]";
      std::string d = diffStats(path + " vs RefCacheSim", oracleStats,
                                gridBank.stats(i));
      if (d.empty()) {
        d = diffStats(path + " vs CacheSim.run", simStats,
                      gridBank.stats(i));
      }
      if (!d.empty()) return d;
    }
  }

  // Path 8: the O(1) fully-associative LRU twin against CacheSim with
  // associativity = numLines, LRU, hit for hit, so straddling references
  // are covered on every case.
  {
    CacheConfig fa = c.config;
    fa.associativity = fa.numLines();
    fa.replacement = ReplacementPolicy::LRU;
    CacheSim sim(fa);
    FullyAssocLru twin(fa);
    const std::uint64_t lineBytes = fa.lineBytes;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const MemRef& ref = trace[i];
      MEMX_EXPECTS(ref.size > 0, "access size must be positive");
      MEMX_EXPECTS(ref.addr <= ~std::uint64_t{0} - (ref.size - 1),
                   "access runs past the top of the 64-bit address space");
      const bool want = sim.access(ref).hit;
      const bool got = twin.access(ref.addr / lineBytes,
                                   (ref.addr + ref.size - 1) / lineBytes);
      if (got != want) {
        std::ostringstream os;
        os << "FullyAssocLru at ref " << i
           << ": CacheSim(FA-LRU) hit=" << want << " twin hit=" << got;
        return os.str();
      }
    }
  }

  // Path 9: conflict counting. The 3C conflict count of c.config (every
  // replacement policy across seeds) must match an oracle built from
  // two RefCacheSims (target, and an FA-LRU twin of equal capacity):
  // a conflict is a target miss the twin hits. countConflicts must then
  // equal min(conflicts, bound) at every bound.
  {
    CacheConfig fa = c.config;
    fa.associativity = fa.numLines();
    fa.replacement = ReplacementPolicy::LRU;
    RefCacheSim target(c.config);
    RefCacheSim twin(fa);
    std::uint64_t oracle = 0;
    for (const MemRef& ref : trace) {
      const bool targetHit = target.access(ref).hit;
      const bool twinHit = twin.access(ref).hit;
      if (!targetHit && twinHit) ++oracle;
    }
    const std::uint64_t classified = classifyMisses(c.config, trace).conflict;
    if (classified != oracle) {
      std::ostringstream os;
      os << "MissClassifier.conflict: oracle=" << oracle
         << " actual=" << classified;
      return os.str();
    }
    for (const std::uint64_t bound :
         {std::uint64_t{0}, std::uint64_t{1}, oracle / 2, oracle,
          oracle + 1, ~std::uint64_t{0}}) {
      const std::uint64_t got = countConflicts(c.config, trace, bound);
      if (got != std::min(oracle, bound)) {
        std::ostringstream os;
        os << "countConflicts bound=" << bound
           << ": oracle=" << std::min(oracle, bound) << " actual=" << got;
        return os.str();
      }
    }
  }

  return {};
}

}  // namespace

DiffCase makeDiffCase(std::uint64_t seed) {
  DiffCase c;
  c.seed = seed;
  c.config = randomCacheConfig(seed);
  c.l2 = randomL2Config(c.config, seed);
  c.lru = randomLruCacheConfig(seed);
  c.grid = randomGridCacheConfig(seed);
  c.trace = randomCheckTrace(seed);
  return c;
}

DiffResult checkDiffCase(const DiffCase& c, std::size_t len) {
  const Trace prefix = prefixOf(c.trace, len);
  const std::string mismatch = diffAllPaths(c, prefix);
  if (mismatch.empty()) return DiffResult{};
  return DiffResult{false,
                    diffCaseRepro(c, prefix.size()) + "\n  " + mismatch};
}

DiffResult replayDiffCase(std::uint64_t seed, std::size_t len) {
  return checkDiffCase(makeDiffCase(seed), len);
}

DiffResult runDifferentialCase(std::uint64_t seed) {
  const DiffCase c = makeDiffCase(seed);
  DiffResult full = checkDiffCase(c, c.trace.size());
  if (full.ok) return full;

  // Shrink to the shortest failing prefix. Stats divergence is
  // monotone in practice; if it is not for some case, `hi` still always
  // indexes a failing prefix, so the repro stays valid.
  std::size_t lo = 0;                  // passing
  std::size_t hi = c.trace.size();     // failing
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (checkDiffCase(c, mid).ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return checkDiffCase(c, hi);
}

DiffSummary runDifferential(std::uint64_t firstSeed, std::size_t count) {
  DiffSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    ++summary.casesRun;
    const DiffResult r = runDifferentialCase(firstSeed + i);
    if (!r.ok) summary.failures.push_back(r.message);
  }
  return summary;
}

}  // namespace memx
