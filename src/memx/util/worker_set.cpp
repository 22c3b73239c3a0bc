#include "memx/util/worker_set.hpp"

#include "memx/util/assert.hpp"

namespace memx {

WorkerSet::WorkerSet(std::size_t threads) : errors_(threads) {
  MEMX_EXPECTS(threads > 0, "a worker set needs at least one thread");
  helpers_.reserve(threads - 1);
  try {
    for (std::size_t t = 1; t < threads; ++t) {
      helpers_.emplace_back([this, t] { work(t); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

WorkerSet::~WorkerSet() { stop(); }

void WorkerSet::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  posted_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void WorkerSet::run(const Body& body) {
  if (helpers_.empty()) {
    body(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    pending_ = helpers_.size();
    ++generation_;
  }
  posted_.notify_all();
  // Each thread writes only its own errors_ slot; the helpers' writes
  // are published by the pending_ handshake below.
  try {
    body(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    body_ = nullptr;
  }
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (!first) first = error;
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void WorkerSet::work(std::size_t thread) {
  std::uint64_t seen = 0;
  for (;;) {
    const Body* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      posted_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
    }
    try {
      (*body)(thread);
    } catch (...) {
      errors_[thread] = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_one();
  }
}

}  // namespace memx
