#include "memx/trace/chunk_stream.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "memx/util/assert.hpp"
#include "memx/util/worker_set.hpp"

namespace memx {

StreamPlan planStream(std::size_t lanes, unsigned hardwareThreads) noexcept {
  const std::size_t hw = std::max(1u, hardwareThreads);
  StreamPlan plan;
  plan.decoderThread = hw >= 2;
  plan.laneThreads = std::clamp<std::size_t>(
      hw - (plan.decoderThread ? 1 : 0), 1, std::max<std::size_t>(lanes, 1));
  return plan;
}

std::size_t streamChunks(TraceSource& source, std::size_t chunkRefs,
                         std::size_t lanes, const ChunkLane& consume) {
  return streamChunks(source, chunkRefs, lanes, consume,
                      planStream(lanes, std::thread::hardware_concurrency()));
}

std::size_t streamChunks(TraceSource& source, std::size_t chunkRefs,
                         std::size_t lanes, const ChunkLane& consume,
                         StreamPlan plan) {
  MEMX_EXPECTS(chunkRefs > 0, "chunkRefs must be positive");
  MEMX_EXPECTS(lanes > 0, "a streamed pass needs at least one lane");
  plan.laneThreads = std::clamp<std::size_t>(plan.laneThreads, 1, lanes);
  // One run() per chunk: thread t < laneThreads feeds lanes t, t +
  // laneThreads, ...; the decode task, when the plan has one, is the last
  // thread and fills chunk k+1 into the other buffer while the lanes
  // consume chunk k. Inline decoding refills the one buffer in between.
  const std::size_t slots = plan.decoderThread ? 2 : 1;
  std::vector<MemRef> buffer(slots * chunkRefs);
  const auto slot = [&](std::size_t k) {
    return buffer.data() + (k % slots) * chunkRefs;
  };
  WorkerSet set(plan.laneThreads + (plan.decoderThread ? 1 : 0));
  std::size_t fed = 0;
  std::size_t count = source.fill(slot(0), chunkRefs);
  for (std::size_t k = 0; count > 0; ++k) {
    const MemRef* const refs = slot(k);
    // The first short fill is the source's end of stream: read no
    // further, so nothing is pulled past a window boundary.
    const bool last = count < chunkRefs;
    std::size_t next = 0;
    set.run([&](std::size_t t) {
      if (t < plan.laneThreads) {
        for (std::size_t lane = t; lane < lanes; lane += plan.laneThreads) {
          consume(lane, refs, count);
        }
      } else if (!last) {
        next = source.fill(slot(k + 1), chunkRefs);
      }
    });
    fed += count;
    if (last) break;
    count = plan.decoderThread ? next : source.fill(slot(k + 1), chunkRefs);
  }
  return fed;
}

}  // namespace memx
