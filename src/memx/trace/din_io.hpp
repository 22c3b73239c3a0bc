// Dinero "din" trace format I/O.
//
// The paper cites Edler & Hill's Dinero IV as the trace-driven
// alternative to its closed-form expressions. This module reads and
// writes the classic din format — one `<label> <hex-address>` pair per
// line, label 0 = read, 1 = write, 2 = instruction fetch — so traces can
// be exchanged with Dinero and other academic tools.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "memx/trace/trace.hpp"

namespace memx {

/// Dinero reference labels.
enum class DinLabel : int {
  Read = 0,
  Write = 1,
  Ifetch = 2,
};

/// Write `trace` in din format ("0 1a2b\n" ...). Reads, writes and
/// instruction fetches map to labels 0/1/2; the per-reference size is not
/// representable in din and is dropped (Dinero assumes word accesses).
void writeDin(std::ostream& os, const Trace& trace);

/// Parse one din line. Returns nullopt for blank / comment-only lines
/// (a `#` starts a comment running to end of line). Otherwise the line
/// must be exactly `<label> <hex-address>`: the label a bare decimal
/// 0/1/2 and the address unsigned hex digits with an optional 0x/0X
/// prefix. Signed addresses ("-1" would silently wrap to 2^64-1 through
/// a lenient strtoull-style parse), out-of-range values and trailing
/// tokens all throw memx::ContractViolation naming `lineNo`.
/// `refSize` is stamped on the returned reference, which must end at or
/// below the top of the address space: an address above
/// 2^64 - refSize (its last byte would wrap past 2^64 - 1) throws too.
[[nodiscard]] std::optional<MemRef> parseDinLine(std::string_view line,
                                                 std::size_t lineNo,
                                                 std::uint32_t refSize = 4);

/// Streaming din decoder over any std::istream (a file, a
/// GzipInputStream, a stringstream). Reads the stream in blocks of
/// kBlockBytes and splits lines in place, so memory use is one block
/// (or the longest line, if longer), independent of trace length. The
/// block is allocated on the first pull, not by the constructor.
/// Canonical lines (`<0|1|2> <1-16 hex digits>`) take a straight accept
/// path; every other line goes through parseDinLine, which owns the
/// grammar and the line-numbered diagnostics. Non-owning: the stream
/// must outlive the source. A stream read error (badbit) throws
/// memx::ContractViolation. ingest() reports references decoded; byte
/// accounting belongs to the stream owner (see FileTraceSource).
class DinStreamSource final : public TraceSource {
public:
  /// Bytes requested from the stream per read.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

  explicit DinStreamSource(std::istream& is, std::uint32_t refSize = 4);

  [[nodiscard]] std::optional<MemRef> next() override;
  [[nodiscard]] std::size_t fill(MemRef* out, std::size_t max) override;
  [[nodiscard]] IngestStats ingest() const override {
    return {0, refsDecoded_};
  }

  /// Lines consumed so far (including blanks and comments).
  [[nodiscard]] std::size_t lineNo() const noexcept { return lineNo_; }

private:
  /// Move the unfinished last line to the front of the block and read
  /// until the block holds at least one whole line. False at end of
  /// stream. A final line without a newline gets one, as getline would
  /// have ended the line there.
  bool refill();

  std::istream* is_;
  std::vector<char> buf_;     ///< empty until the first pull
  std::size_t pos_ = 0;       ///< start of the next unread line
  std::size_t wholeEnd_ = 0;  ///< one past the last '\n' in buf_
  std::size_t end_ = 0;       ///< bytes of buf_ holding stream data
  bool eof_ = false;
  std::uint32_t refSize_;
  std::size_t lineNo_ = 0;
  std::uint64_t refsDecoded_ = 0;
};

/// Parse a din stream into memory. Blank lines and comments are
/// skipped; everything else must satisfy parseDinLine, which throws
/// memx::ContractViolation (naming the line) on malformed input.
/// Label 2 (ifetch) is preserved as AccessType::Instr so traces
/// round-trip. `refSize` is the access size to stamp on every
/// reference.
[[nodiscard]] Trace readDin(std::istream& is, std::uint32_t refSize = 4);

/// Convenience: round-trip through a string (test/bench helper).
[[nodiscard]] std::string toDinString(const Trace& trace);
[[nodiscard]] Trace fromDinString(const std::string& text,
                                  std::uint32_t refSize = 4);

}  // namespace memx
