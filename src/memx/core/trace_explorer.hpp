// MemExplore over a fixed reference trace.
//
// The kernel-based Explorer regenerates traces per tiling/layout; this
// entry point sweeps (T, L, S) over a trace that already exists — an
// instruction-fetch stream, a Dinero file, or any recorded workload.
#pragma once

#include <string>

#include "memx/core/explorer.hpp"
#include "memx/obs/recorder.hpp"
#include "memx/trace/trace.hpp"
#include "memx/trace/trace_source.hpp"

namespace memx {

/// Evaluate one cache configuration against a fixed trace using the
/// paper's cycle and energy models (tiling term B = 1).
[[nodiscard]] DesignPoint evaluateTracePoint(const Trace& trace,
                                             const CacheConfig& cache,
                                             const ExploreOptions& options);

/// Sweep every (T, L, S) of `options.ranges` over `trace`. Tiling is not
/// applicable to a fixed trace; all points carry B = 1.
[[nodiscard]] ExplorationResult exploreTrace(const std::string& name,
                                             const Trace& trace,
                                             const ExploreOptions& options);

// Streamed variants: identical models and statistics, but the trace is
// pulled from a TraceSource in chunks of `chunkRefs` references, so
// out-of-core traces (e.g. a FileTraceSource over a .din.gz) evaluate
// in memory bounded by the chunk size, independent of trace length.
// With a trivial window the results are bit-identical to materializing
// the stream and calling the Trace overloads — same replay order, same
// integer statistics, same Add_bs double.
//
// `window` drops `skip` references, replays `warmup` references to
// prime cache (and bus) state without counting them, then counts up to
// `limit` references (0 = to exhaustion). Warmup exclusion is exact:
// every statistic is an additive accumulator, so the counted-region
// stats are end-of-run minus the warmup-boundary snapshot.
//
// `recorder`, when non-null, receives `trace.bytes_read` /
// `trace.refs_decoded` counter deltas (from the source's IngestStats),
// the bank's `sweep.*` and engine counters (see ConfigBank::record), and
// `trace.ingest` / `trace.warmup` / `trace.replay` spans.
//
// Every overload replays through one ConfigBank and folds with
// foldPoint(), so write energy, leakage and timing apply exactly as in
// a kernel sweep.

/// Streamed single-configuration evaluation (simulation backend).
[[nodiscard]] DesignPoint evaluateTracePoint(
    TraceSource& source, const CacheConfig& cache,
    const ExploreOptions& options, const TraceWindow& window = {},
    std::size_t chunkRefs = kDefaultTraceChunkRefs,
    obs::Recorder* recorder = nullptr);

/// Streamed (T, L, S) sweep on the same bank as the Trace overload
/// (resolveBackend(options)).
[[nodiscard]] ExplorationResult exploreTrace(
    const std::string& name, TraceSource& source,
    const ExploreOptions& options, const TraceWindow& window = {},
    std::size_t chunkRefs = kDefaultTraceChunkRefs,
    obs::Recorder* recorder = nullptr);

}  // namespace memx
