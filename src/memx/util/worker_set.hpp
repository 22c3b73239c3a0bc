// A fixed set of threads that run one body together, again and again:
// the one way memx runs independent work side by side. The parallel
// sweep drains its group queue on a set, and a streamed trace pass runs
// each chunk step (its lanes and the decode of the next chunk) as one
// run().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace memx {

/// WorkerSet(n) starts n − 1 helper threads; the caller is thread 0.
/// Helpers persist across run() calls, so thread t is the same OS thread
/// in every run, and they join in the destructor.
class WorkerSet {
public:
  using Body = std::function<void(std::size_t thread)>;

  /// Starts `threads − 1` helpers (`threads` ≥ 1), so WorkerSet(1) starts
  /// none. If starting one fails, those already started are joined and
  /// the error is rethrown.
  explicit WorkerSet(std::size_t threads);
  ~WorkerSet();

  WorkerSet(const WorkerSet&) = delete;
  WorkerSet& operator=(const WorkerSet&) = delete;

  /// Call body(t) once on each thread t, body(0) on the caller's, and
  /// return when all have returned. No exception crosses a thread: the
  /// lowest-numbered thread's is rethrown here once every body has
  /// returned, and the set stays usable. One run() at a time per set.
  void run(const Body& body);

private:
  void work(std::size_t thread);
  void stop();

  std::mutex mutex_;
  std::condition_variable posted_;
  std::condition_variable done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  const Body* body_ = nullptr;
  std::size_t pending_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< one per thread
  std::vector<std::thread> helpers_;
};

}  // namespace memx
