// Multi-threaded MemExplore sweep.
//
// The sweep is partitioned into trace groups — sets of (T, L, S, B)
// points sharing one tiling and one memory layout, hence one reference
// trace. The workers are one WorkerSet (util/worker_set.hpp), the
// calling thread among them; they claim whole groups from a shared
// counter, and each materializes the group's trace once (with a
// worker-local access-pattern cache) and evaluates the group's
// configuration bank against it in a single ConfigBank pass.
// Explorer::explore() is the same drain with one worker, the calling
// thread, and starts no thread; results are identical to the serial
// sweep, in the same key order.
//
// An exception thrown inside a worker (for example a contract violation
// while generating a kernel's trace) stops the others claiming groups,
// and the lowest-numbered worker's is rethrown on the calling thread
// after all workers returned — none reaches a thread boundary and
// terminates the process.
#pragma once

#include <cstdint>

#include "memx/core/explorer.hpp"

namespace memx {

/// Run the full sweep over `kernel` with `threads` workers (0 = use the
/// hardware concurrency, at least 1). Deterministic: equal to
/// Explorer(options).explore(kernel) point for point.
[[nodiscard]] ExplorationResult exploreParallel(
    const Kernel& kernel, const ExploreOptions& options,
    unsigned threads = 0);

/// Same, reusing an existing Explorer so its memoized layouts carry over
/// between runs (the planning phase runs serially on the calling thread
/// and may grow `grid`'s layout memo; workers only read it).
[[nodiscard]] ExplorationResult exploreParallel(const Explorer& grid,
                                                const Kernel& kernel,
                                                unsigned threads = 0);

}  // namespace memx
