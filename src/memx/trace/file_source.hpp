// Out-of-core trace files as streaming sources.
//
// FileTraceSource is the production entry point for real-program
// traces: it opens a din text file — transparently inflating it when
// the path ends in .gz — and delivers references in bulk through the
// TraceSource interface, so a multi-hundred-MB trace sweeps through the
// simulators in bounded memory. Composition, innermost first:
//
//   std::ifstream (binary)
//     -> byte-counting streambuf        (ingest().bytesRead)
//     -> GzipInputStream when *.gz      (bounded-memory inflate)
//     -> DinStreamSource                (in-place block decode;
//                                        ingest().refsDecoded)
//
// Wrap it in a WindowedSource for skip/warmup/limit.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <streambuf>
#include <string>
#include <utility>

#include "memx/trace/din_io.hpp"
#include "memx/trace/gzip_stream.hpp"
#include "memx/trace/trace.hpp"

namespace memx {

namespace detail {

/// Pass-through streambuf that counts the raw bytes pulled from the
/// stream it wraps — compressed bytes for a .gz file — so ingestion
/// cost is observable no matter what decoders sit on top. A failing
/// read (say, of a directory) throws memx::ContractViolation naming
/// `path` instead of passing for end of file.
class CountingInBuf final : public std::streambuf {
public:
  CountingInBuf(std::istream& raw, std::string path,
                std::size_t bufBytes = std::size_t{1} << 16)
      : raw_(&raw),
        path_(std::move(path)),
        bufBytes_(bufBytes),
        buf_(std::make_unique_for_overwrite<char[]>(bufBytes)) {}

  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

protected:
  int_type underflow() override;

private:
  std::istream* raw_;
  std::string path_;
  std::size_t bufBytes_;
  std::unique_ptr<char[]> buf_;  ///< uninitialized: read() fills it
  std::uint64_t bytes_ = 0;
};

}  // namespace detail

/// True when `path` names a gzip-compressed file by extension (".gz").
[[nodiscard]] bool isGzipPath(const std::string& path);

/// Streams a din trace file (plain or .gz) from disk. Throws
/// memx::ContractViolation when the file cannot be opened, when a .gz
/// path is given but the build has no zlib, when a read fails (a
/// directory, an I/O error) and (from the din decoder) on malformed
/// lines. Single-pass; construct a fresh source to rescan.
class FileTraceSource final : public TraceSource {
public:
  explicit FileTraceSource(const std::string& path,
                           std::uint32_t refSize = 4);
  ~FileTraceSource() override;

  [[nodiscard]] std::optional<MemRef> next() override;
  [[nodiscard]] std::size_t fill(MemRef* out, std::size_t max) override;
  /// bytesRead counts file bytes consumed (compressed size for .gz);
  /// refsDecoded counts din references parsed.
  [[nodiscard]] IngestStats ingest() const override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
  std::string path_;
  std::ifstream file_;
  detail::CountingInBuf counting_;
  std::istream counted_;
  std::unique_ptr<GzipInputStream> gunzip_;  // null for plain files
  std::unique_ptr<DinStreamSource> din_;
};

}  // namespace memx
