#include "memx/trace/file_source.hpp"

#include "memx/util/assert.hpp"

namespace memx {

namespace detail {

CountingInBuf::int_type CountingInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  raw_->read(buf_.get(), static_cast<std::streamsize>(bufBytes_));
  MEMX_EXPECTS(!raw_->bad(), "cannot read trace file: " + path_);
  const auto got = static_cast<std::size_t>(raw_->gcount());
  if (got == 0) return traits_type::eof();
  bytes_ += got;
  setg(buf_.get(), buf_.get(), buf_.get() + got);
  return traits_type::to_int_type(*gptr());
}

}  // namespace detail

bool isGzipPath(const std::string& path) {
  static const std::string kExt = ".gz";
  return path.size() > kExt.size() &&
         path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0;
}

FileTraceSource::FileTraceSource(const std::string& path,
                                 std::uint32_t refSize)
    : path_(path),
      file_(path, std::ios::binary),
      counting_(file_, path),
      counted_(&counting_) {
  MEMX_EXPECTS(file_.is_open(), "cannot open trace file: " + path);
  // Rethrow the counting buffer's read errors instead of letting the
  // stream swallow them into a short read.
  counted_.exceptions(std::ios::badbit);
  if (isGzipPath(path)) {
    MEMX_EXPECTS(gzipSupported(),
                 "trace file " + path +
                     " is gzip-compressed but this build has no zlib");
    gunzip_ = std::make_unique<GzipInputStream>(counted_);
    din_ = std::make_unique<DinStreamSource>(*gunzip_, refSize);
  } else {
    din_ = std::make_unique<DinStreamSource>(counted_, refSize);
  }
}

FileTraceSource::~FileTraceSource() = default;

std::optional<MemRef> FileTraceSource::next() { return din_->next(); }

std::size_t FileTraceSource::fill(MemRef* out, std::size_t max) {
  return din_->fill(out, max);
}

IngestStats FileTraceSource::ingest() const {
  return {counting_.bytes(), din_->ingest().refsDecoded};
}

}  // namespace memx
