// Exploration-as-a-service: a long-running sweep server.
//
// The server reads newline-delimited JSON requests from an input
// stream, routes them through a bounded job queue to a worker pool,
// and writes one JSON response line per request (in completion order;
// clients correlate by the echoed "id"). All exploration goes through
// the existing library entry points — Explorer::explore, searchPareto,
// exploreTrace — so a served response is bit-identical to the same
// call made directly.
//
// Concurrency and caching:
//   * Every request gets its own obs::Recorder and its own Explorer;
//     nothing request-scoped is shared, so two interleaved requests
//     can never bleed counters or spans into each other's RunReport.
//   * Completed results live in a ResultStore keyed by a canonical
//     hash of (workload, config space, model and the backend the
//     model resolves to). Every handler makes one ResultStore::resolve
//     call: identical requests hit cache and concurrent identical
//     requests compute once (single-flight). An explore request's
//     compute step walks the cached sibling sweeps of its workload and
//     model in sweepKeys() order and re-selects from the first that
//     holds every key, instead of re-simulating.
//   * The queue bound is the backpressure valve: a full queue blocks
//     the reader, which stops consuming input.
//
// Lifecycle: an "op":"shutdown" request (or requestDrain(), e.g. from
// a SIGINT handler) starts a graceful drain — requests already being
// computed finish and respond normally, requests still queued receive
// a clean shutdown error, then run() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>

#include "memx/serve/protocol.hpp"
#include "memx/serve/result_store.hpp"

namespace memx::serve {

struct ServerOptions {
  /// Worker threads; 0 = hardware concurrency (clamped to [1, 8]).
  unsigned workers = 0;
  /// Job-queue bound: requests admitted but not yet picked up. When
  /// full, the reader blocks (backpressure) instead of buffering.
  std::size_t queueCapacity = 64;
  /// Request lines longer than this are rejected with a diagnostic
  /// (the offending line is consumed, the connection keeps going).
  std::size_t maxRequestBytes = std::size_t{1} << 20;
  ResultStore::Config store;
  /// Test/telemetry hook: runs on the worker thread immediately before
  /// a job is processed. A blocking hook deterministically holds that
  /// job in-flight (the lifecycle tests use this to pin workers while
  /// they assert backpressure and drain behavior).
  std::function<void(const Request&)> onJobStart;
};

/// Whole-lifetime server telemetry (the "server" half of op:stats).
struct ServerStats {
  std::atomic<std::uint64_t> requests{0};     ///< lines consumed
  std::atomic<std::uint64_t> responsesOk{0};  ///< "ok":true lines
  std::atomic<std::uint64_t> responsesError{0};
  std::atomic<std::uint64_t> drained{0};  ///< queued jobs shed at drain
};

class Server {
public:
  explicit Server(ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until EOF, an "op":"shutdown" request, or requestDrain().
  /// Blocking; returns the number of requests consumed. One run() at a
  /// time per Server (the store persists across runs).
  std::uint64_t run(std::istream& in, std::ostream& out);

  /// Process one request line synchronously and return the response
  /// line (no trailing newline). This is the worker code path without
  /// the queue: tests and the in-process client use it directly.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// Begin a graceful drain of a concurrent run() (async-signal
  /// friendly: just sets flags). Idempotent; no-op when not serving.
  void requestDrain() noexcept {
    drainRequested_.store(true, std::memory_order_relaxed);
    shedQueued_.store(true, std::memory_order_relaxed);
  }

  /// True once a drain has begun (shutdown op or requestDrain()): any
  /// job still queued will be shed. Lets tests and embedders sequence
  /// against the drain without polling the output stream.
  [[nodiscard]] bool draining() const noexcept {
    return shedQueued_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ResultStore& store() noexcept { return store_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] unsigned workerCount() const noexcept;

private:
  /// Count one consumed line and parse it into a request, or into the
  /// error response for an oversized, malformed or invalid line.
  [[nodiscard]] std::variant<Request, JsonValue> admit(
      const std::string& line, bool oversized);
  /// Count `response` as ok or error and serialize it.
  [[nodiscard]] std::string finish(const JsonValue& response);

  /// Dispatch one parsed request to its handler; never throws (errors
  /// become "ok":false responses).
  [[nodiscard]] JsonValue processValue(const Request& request);

  JsonValue handleExplore(const Request& request);
  JsonValue handleSearch(const Request& request);
  JsonValue handleTrace(const Request& request);
  [[nodiscard]] JsonValue statsValue() const;

  ServerOptions options_;
  ResultStore store_;
  ServerStats stats_;
  /// Stop reading input (shutdown op or signal).
  std::atomic<bool> drainRequested_{false};
  /// Answer still-queued jobs with a shutdown error instead of
  /// computing them (set on shutdown/drain, not on plain EOF: EOF
  /// means "no more input", queued work still completes).
  std::atomic<bool> shedQueued_{false};
};

}  // namespace memx::serve
