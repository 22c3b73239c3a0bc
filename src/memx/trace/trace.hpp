// In-memory address traces and streaming trace sources.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "memx/trace/memref.hpp"

namespace memx {

/// An ordered sequence of memory references (the unit the cache simulator,
/// bus monitor and energy accounting all consume).
class Trace {
public:
  Trace() = default;
  explicit Trace(std::vector<MemRef> refs) : refs_(std::move(refs)) {}

  /// Append one reference to the end of the trace.
  void push(const MemRef& ref) { refs_.push_back(ref); }

  /// Append every reference of `other`, preserving order.
  void append(const Trace& other);

  [[nodiscard]] std::size_t size() const noexcept { return refs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return refs_.empty(); }
  [[nodiscard]] const MemRef& operator[](std::size_t i) const {
    return refs_[i];
  }

  [[nodiscard]] auto begin() const noexcept { return refs_.begin(); }
  [[nodiscard]] auto end() const noexcept { return refs_.end(); }

  [[nodiscard]] const std::vector<MemRef>& refs() const noexcept {
    return refs_;
  }

  /// Number of read-like references (loads and instruction fetches).
  [[nodiscard]] std::size_t readCount() const noexcept;
  /// Number of write references.
  [[nodiscard]] std::size_t writeCount() const noexcept;

private:
  std::vector<MemRef> refs_;
};

/// I/O-side accounting of a streaming source (what external ingestion
/// has cost so far, not what a consumer has kept). Sources that do no
/// external decoding report zeros.
struct IngestStats {
  std::uint64_t bytesRead = 0;    ///< raw bytes consumed (compressed size
                                  ///< for a .din.gz, file size for a .din)
  std::uint64_t refsDecoded = 0;  ///< references decoded from the format
};

/// Default chunk granularity of the streaming replay loops: 32k
/// references (512 KiB of MemRef buffer; the streamed loop holds two,
/// one being decoded while the other is replayed) keeps the per-chunk
/// dispatch cost invisible while bounding resident memory independent
/// of trace length.
inline constexpr std::size_t kDefaultTraceChunkRefs = std::size_t{1} << 15;

/// Pull-based source of references; lets large synthetic workloads and
/// out-of-core trace files be simulated without materializing the whole
/// trace.
class TraceSource {
public:
  virtual ~TraceSource() = default;
  /// Next reference, or nullopt when the stream is exhausted.
  [[nodiscard]] virtual std::optional<MemRef> next() = 0;
  /// Bulk pull: write up to `max` references to `out` and return how
  /// many were written. A count below `max` means the stream is
  /// exhausted (later calls return 0), so a caller never has to pull
  /// again to learn that. The default loops next(); sources that decode
  /// or copy in bulk override it, and decorators forward it in bulk.
  [[nodiscard]] virtual std::size_t fill(MemRef* out, std::size_t max);
  /// Ingestion-side accounting; decorators forward to the source they
  /// wrap so the decode cost stays visible through a windowing chain.
  [[nodiscard]] virtual IngestStats ingest() const { return {}; }

protected:
  /// next() as a one-reference fill(), for sources whose bulk fill() is
  /// the primary path.
  [[nodiscard]] std::optional<MemRef> nextFromFill() {
    MemRef ref;
    if (fill(&ref, 1) == 0) return std::nullopt;
    return ref;
  }
};

/// Fill `buf` (resized to the count) with up to `chunkRefs` references
/// pulled from `source` through TraceSource::fill. Returns the number
/// delivered; a short count means the source is exhausted.
std::size_t fillChunk(TraceSource& source, std::vector<MemRef>& buf,
                      std::size_t chunkRefs);

/// Adapts an in-memory Trace to the streaming interface.
class VectorTraceSource final : public TraceSource {
public:
  explicit VectorTraceSource(Trace trace) : trace_(std::move(trace)) {}
  [[nodiscard]] std::optional<MemRef> next() override;
  [[nodiscard]] std::size_t fill(MemRef* out, std::size_t max) override;

private:
  Trace trace_;
  std::size_t pos_ = 0;
};

/// Drain a source into an in-memory trace (test/bench helper).
[[nodiscard]] Trace drain(TraceSource& source);

}  // namespace memx
