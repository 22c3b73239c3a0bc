// Differential oracle runner for the optimized sweep engine.
//
// Each seeded case replays one generated reference stream through every
// production simulation path — CacheSim's bulk fast path, its
// per-access outcome path, a MultiSim ConfigBank, the sweep's two-level
// L1-filter + L2 ConfigBank path, the stack-distance bank
// (a StackDist ConfigBank on an always-in-domain LRU config plus its
// fully-associative and direct-mapped siblings) and the policy-grid
// bank (the same sibling scheme on a seed-pure FIFO or tree-PLRU
// config, exercising PolicyGridProfile) — and diffs the full
// statistics of each against the naive RefCacheSim oracle. Two more
// paths check the 3C machinery behind the Section-4.1 layout: the O(1)
// fully-associative LRU twin hit for hit against CacheSim, and the
// conflict count (MissClassifier and the bounded countConflicts)
// against a conflict count built from two RefCacheSims. Full
// simulation must match bit for bit (including the Random replacement
// policy, which both sides draw from identically-seeded engines). On a
// mismatch the runner shrinks the stream to the shortest failing prefix
// and reports a one-line repro (`seed=S len=N ...`) that reconstructs
// the case from the seed alone via replayDiffCase().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memx/cachesim/cache_config.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

/// One generated differential case: everything derives from the seed.
struct DiffCase {
  std::uint64_t seed = 0;
  CacheConfig config;  ///< primary configuration under test
  CacheConfig l2;      ///< inclusive outer level for the hierarchy path
  CacheConfig lru;     ///< LRU/write-allocate config for the stack-
                       ///< distance path (the StackDist domain)
  CacheConfig grid;    ///< FIFO/TreePLRU write-allocate config for the
                       ///< policy-grid path (PolicyGridProfile's domain)
  Trace trace;
};

/// Generate the case for `seed` (config from randomCacheConfig, L2 from
/// randomL2Config, lru from randomLruCacheConfig, grid from
/// randomGridCacheConfig, stream from randomCheckTrace — policies cover
/// all 16 combinations over any 16 consecutive seeds).
[[nodiscard]] DiffCase makeDiffCase(std::uint64_t seed);

/// One-line reproduction header for `c` truncated to `len` references
/// ("MEMX_DIFF repro: seed=S len=N cfg=... | rerun: ..."). Every failure
/// message starts with this line.
[[nodiscard]] std::string diffCaseRepro(const DiffCase& c,
                                        std::size_t len);

/// Outcome of one differential check.
struct DiffResult {
  bool ok = true;
  /// Empty when ok; otherwise a one-line repro followed by the first
  /// mismatching engine path/field with expected vs actual values.
  std::string message;

  explicit operator bool() const noexcept { return ok; }
};

/// Diff every engine path against the oracle on the first `len`
/// references of `c.trace` (len is clamped to the trace length).
[[nodiscard]] DiffResult checkDiffCase(const DiffCase& c, std::size_t len);

/// Reconstruct the case for `seed` and check its first `len` references
/// — the one-call reproduction entry point printed in repro lines.
[[nodiscard]] DiffResult replayDiffCase(std::uint64_t seed,
                                        std::size_t len);

/// Run the full case for `seed`; on failure, minimize to the shortest
/// failing prefix and return its repro message.
[[nodiscard]] DiffResult runDifferentialCase(std::uint64_t seed);

/// Aggregate of a seed-range sweep.
struct DiffSummary {
  std::size_t casesRun = 0;
  std::vector<std::string> failures;  ///< minimized repro messages

  [[nodiscard]] bool allOk() const noexcept { return failures.empty(); }
};

/// Run `count` cases for seeds firstSeed .. firstSeed + count - 1.
[[nodiscard]] DiffSummary runDifferential(std::uint64_t firstSeed,
                                          std::size_t count);

}  // namespace memx
