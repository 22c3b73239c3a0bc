// Composable windowing over streaming trace sources.
//
// Real-program traces are long: the interesting region rarely starts at
// reference zero, caches need warming before statistics mean anything,
// and a sweep seldom needs the whole billion-access stream. TraceWindow
// names the three counts (skip, warmup, limit) and WindowedSource
// applies them as a TraceSource decorator, so any source — an in-memory
// vector, a din file, a gzip stream — windows the same way and windows
// compose by nesting.
#pragma once

#include <cstdint>

#include "memx/trace/trace.hpp"

namespace memx {

/// Reference-count windowing of a trace stream, applied in order:
/// drop `skip` references, then deliver `warmup` references that prime
/// simulator state but are excluded from reported statistics, then
/// deliver up to `limit` counted references (0 = unbounded).
///
/// WindowedSource enforces skip and the warmup + limit delivery cap;
/// the warmup/counted statistics split is the replay driver's job (it
/// snapshots counters at the boundary — see exploreTrace).
struct TraceWindow {
  std::uint64_t skip = 0;    ///< references dropped before anything else
  std::uint64_t warmup = 0;  ///< simulated but uncounted references
  std::uint64_t limit = 0;   ///< counted-reference cap; 0 = unbounded

  /// True when the window passes every reference through counted.
  [[nodiscard]] bool trivial() const noexcept {
    return skip == 0 && warmup == 0 && limit == 0;
  }
};

/// Applies a TraceWindow to an inner source. Non-owning: the inner
/// source must outlive the window. Single-pass, like every TraceSource.
class WindowedSource final : public TraceSource {
public:
  explicit WindowedSource(TraceSource& inner, TraceWindow window)
      : inner_(&inner), window_(window) {}

  [[nodiscard]] std::optional<MemRef> next() override;
  /// Skips in bulk on the first pull, then caps every pull at what the
  /// window still allows, so the inner source is never asked for a
  /// reference past warmup + limit.
  [[nodiscard]] std::size_t fill(MemRef* out, std::size_t max) override;
  [[nodiscard]] IngestStats ingest() const override {
    return inner_->ingest();
  }

  [[nodiscard]] const TraceWindow& window() const noexcept {
    return window_;
  }
  /// References delivered so far (skip not included; warmup included).
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_;
  }

private:
  TraceSource* inner_;
  TraceWindow window_;
  std::uint64_t delivered_ = 0;
  bool skipped_ = false;
};

}  // namespace memx
