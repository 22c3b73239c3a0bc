// The streamed replay loop behind ConfigBank::run(TraceSource&).
//
// A streamed pass has two kinds of work per chunk: decoding the next
// references out of the source (inflate, din parse, windowing, bus
// metering) and feeding the chunk to the bank's independent lanes (one
// per member group: a stack-distance or policy-grid profile, or the
// simulators sharing one line size). streamChunks runs them side by side
// on one WorkerSet, one run() per chunk: the set's decode task fills
// chunk k+1 while the lanes consume chunk k, and the lanes of one chunk
// run on separate threads. A pass then costs about its slowest stage
// instead of the sum.
//
//   source.fill ──> [chunk A | chunk B] ──> lane 0 (caller thread)
//   (decode task)     two buffers,       ├─> lane 1 (helper thread)
//                     swapped per chunk   └─> ...
//
// Memory is two chunks (one when decoding inline), independent of trace
// length. Reading stops at the first short fill — the source's end of
// stream — so read-ahead never pulls past a window's warmup or limit
// boundary.
#pragma once

#include <cstddef>
#include <functional>

#include "memx/trace/trace.hpp"

namespace memx {

/// Feeds one chunk to one lane: `lane` in [0, lanes). `refs` is valid
/// only for the duration of the call. Different lanes of one chunk may
/// run concurrently, so a lane may touch only state no other lane
/// touches; each lane always runs on the same thread within one
/// streamChunks call, and sees the chunks in stream order.
using ChunkLane =
    std::function<void(std::size_t lane, const MemRef* refs,
                       std::size_t count)>;

/// How many threads a streamed pass uses: the decode task's (if any) plus
/// the lane threads, the caller's own thread among the latter. The total
/// never exceeds `hardwareThreads` (0, "unknown", counts as 1).
struct StreamPlan {
  bool decoderThread = false;  ///< decode on a thread of its own
  std::size_t laneThreads = 1; ///< threads feeding lanes, caller included
};

/// The plan streamChunks follows for `lanes` lanes on a machine with
/// `hardwareThreads` hardware threads: a decode thread once there are
/// two, then one lane thread per lane up to what is left.
[[nodiscard]] StreamPlan planStream(std::size_t lanes,
                                    unsigned hardwareThreads) noexcept;

/// Drain `source` in chunks of `chunkRefs` references, handing every
/// chunk to each of `lanes` lanes, with decoding overlapped and lanes
/// spread as planStream(lanes, std::thread::hardware_concurrency())
/// says. Returns the number of references drained. An exception thrown
/// by the source or a lane is rethrown on the caller's thread, message
/// intact, once every thread of that chunk's step has returned.
std::size_t streamChunks(TraceSource& source, std::size_t chunkRefs,
                         std::size_t lanes, const ChunkLane& consume);

/// streamChunks under an explicit plan (lane threads clamped to
/// [1, lanes]), so every plan — inline decoding included — runs on any
/// machine; the overload above is this one under planStream's answer.
std::size_t streamChunks(TraceSource& source, std::size_t chunkRefs,
                         std::size_t lanes, const ChunkLane& consume,
                         StreamPlan plan);

}  // namespace memx
