#include "memx/trace/chunk_stream.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "memx/util/assert.hpp"

namespace memx {

namespace {

/// Delivers the source's chunks in stream order. With a decoder thread
/// it double-buffers: the thread fills one buffer while the caller
/// consumes the other. Without one, next() fills inline.
class ChunkDecoder {
public:
  ChunkDecoder(TraceSource& source, std::size_t chunkRefs, bool threaded)
      : source_(&source), chunkRefs_(chunkRefs) {
    slots_[0].refs.resize(chunkRefs);
    if (!threaded) return;
    slots_[1].refs.resize(chunkRefs);
    thread_ = std::thread([this] { decode(); });
  }

  ~ChunkDecoder() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    changed_.notify_all();
    thread_.join();
  }

  ChunkDecoder(const ChunkDecoder&) = delete;
  ChunkDecoder& operator=(const ChunkDecoder&) = delete;

  /// The next chunk; fewer than chunkRefs references means it is the
  /// last. Rethrows the decoder's exception.
  [[nodiscard]] std::pair<const MemRef*, std::size_t> next() {
    if (!thread_.joinable()) {
      Slot& only = slots_[0];
      only.count = source_->fill(only.refs.data(), chunkRefs_);
      return {only.refs.data(), only.count};
    }
    Slot& slot = slots_[current_ % 2];
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return slot.full; });
    if (slot.error) std::rethrow_exception(slot.error);
    return {slot.refs.data(), slot.count};
  }

  /// Hand the chunk next() returned back for refilling.
  void release() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_[current_ % 2].full = false;
    }
    changed_.notify_all();
    ++current_;
  }

private:
  struct Slot {
    std::vector<MemRef> refs;
    std::size_t count = 0;
    bool full = false;  ///< filled and not yet released
    std::exception_ptr error;  ///< what the fill threw, if it threw
  };

  void decode() {
    for (std::size_t k = 0;; ++k) {
      Slot& slot = slots_[k % 2];
      {
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock, [&] { return stop_ || !slot.full; });
        if (stop_) return;
      }
      std::size_t count = 0;
      std::exception_ptr error;
      try {
        count = source_->fill(slot.refs.data(), chunkRefs_);
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        slot.count = count;
        slot.full = true;
        slot.error = error;
      }
      changed_.notify_all();
      if (error || count < chunkRefs_) return;
    }
  }

  TraceSource* source_;
  std::size_t chunkRefs_;
  std::array<Slot, 2> slots_;
  std::size_t current_ = 0;  ///< chunk the caller consumes next (threaded)

  std::mutex mutex_;
  std::condition_variable changed_;
  bool stop_ = false;
  std::thread thread_;
};

/// Runs every lane over each chunk: lanes t, t + threads, t + 2 *
/// threads, ... on lane thread t, the caller being thread 0.
class LaneCrew {
public:
  LaneCrew(std::size_t lanes, std::size_t threads, const ChunkLane& consume)
      : lanes_(lanes), stride_(threads), consume_(&consume) {
    try {
      for (std::size_t t = 1; t < threads; ++t) {
        helpers_.emplace_back([this, t] { work(t); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~LaneCrew() { stop(); }

  LaneCrew(const LaneCrew&) = delete;
  LaneCrew& operator=(const LaneCrew&) = delete;

  /// Feed one chunk to every lane; returns when all are done, rethrowing
  /// the first lane exception.
  void run(const MemRef* refs, std::size_t count) {
    if (helpers_.empty()) {
      runLanes(0, refs, count);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      refs_ = refs;
      count_ = count;
      pending_ = helpers_.size();
      ++generation_;
    }
    posted_.notify_all();
    std::exception_ptr error;
    try {
      runLanes(0, refs, count);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    if (!error) error = error_;
    if (error) std::rethrow_exception(error);
  }

private:
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    posted_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  void runLanes(std::size_t thread, const MemRef* refs, std::size_t count) {
    for (std::size_t lane = thread; lane < lanes_; lane += stride_) {
      (*consume_)(lane, refs, count);
    }
  }

  void work(std::size_t thread) {
    std::uint64_t seen = 0;
    for (;;) {
      const MemRef* refs = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        posted_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        refs = refs_;
        count = count_;
      }
      std::exception_ptr error;
      try {
        runLanes(thread, refs, count);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !error_) error_ = error;
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::size_t lanes_;
  std::size_t stride_;
  const ChunkLane* consume_;

  std::mutex mutex_;
  std::condition_variable posted_;
  std::condition_variable done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  const MemRef* refs_ = nullptr;
  std::size_t count_ = 0;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
  std::vector<std::thread> helpers_;
};

}  // namespace

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
  std::size_t fed = 0;
  std::exception_ptr error;
  {
    ChunkDecoder decoder(source, chunkRefs, plan.decoderThread);
    LaneCrew crew(lanes, plan.laneThreads, consume);
    try {
      for (;;) {
        const auto [refs, count] = decoder.next();
        if (count > 0) crew.run(refs, count);
        fed += count;
        if (count < chunkRefs) break;
        decoder.release();
      }
    } catch (...) {
      error = std::current_exception();
    }
  }  // every helper thread joins here
  if (error) std::rethrow_exception(error);
  return fed;
}

}  // namespace memx
