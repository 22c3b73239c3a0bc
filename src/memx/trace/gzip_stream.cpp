#include "memx/trace/gzip_stream.hpp"

#include <cstring>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

#include "memx/util/assert.hpp"

#if defined(MEMX_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace memx {

#if defined(MEMX_HAVE_ZLIB)

bool gzipSupported() noexcept { return true; }

namespace detail {

namespace {

[[noreturn]] void throwZlib(const char* stage, int rc, const z_stream& zs) {
  std::string msg = "gzip stream: ";
  msg += stage;
  msg += " failed (zlib rc ";
  msg += std::to_string(rc);
  if (zs.msg != nullptr) {
    msg += ": ";
    msg += zs.msg;
  }
  msg += ")";
  throw ContractViolation(msg);
}

}  // namespace

/// Inflating streambuf. Pulls compressed bytes from `raw` into in_,
/// inflates into the get area out_; both buffers are fixed-size, so
/// memory is O(bufBytes) regardless of stream length. windowBits
/// 15 + 32 enables zlib/gzip header auto-detection; a clean Z_STREAM_END
/// followed by more input is treated as a concatenated gzip member and
/// the inflater is reset, matching `gzip -d` semantics.
class GzipInBuf final : public std::streambuf {
public:
  GzipInBuf(std::istream& raw, std::size_t bufBytes)
      : raw_(&raw),
        bufBytes_(bufBytes),
        in_(std::make_unique_for_overwrite<char[]>(bufBytes)),
        out_(std::make_unique_for_overwrite<char[]>(bufBytes)) {
    MEMX_EXPECTS(bufBytes > 0, "gzip buffer size must be positive");
    std::memset(&zs_, 0, sizeof(zs_));
    const int rc = inflateInit2(&zs_, 15 + 32);
    if (rc != Z_OK) throwZlib("inflateInit2", rc, zs_);
    live_ = true;
  }

  ~GzipInBuf() override {
    if (live_) inflateEnd(&zs_);
  }

  GzipInBuf(const GzipInBuf&) = delete;
  GzipInBuf& operator=(const GzipInBuf&) = delete;

  [[nodiscard]] std::uint64_t compressedBytesRead() const noexcept {
    return compressedBytes_;
  }

protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (finished_) return traits_type::eof();

    std::size_t produced = 0;
    while (produced == 0) {
      if (zs_.avail_in == 0 && !rawEof_) refill();

      zs_.next_out = reinterpret_cast<Bytef*>(out_.get());
      zs_.avail_out = static_cast<uInt>(bufBytes_);
      const int rc = inflate(&zs_, Z_NO_FLUSH);
      produced = bufBytes_ - zs_.avail_out;

      if (rc == Z_STREAM_END) {
        // A member ended exactly at the input buffer boundary: look at
        // the raw stream before deciding between end-of-stream and a
        // concatenated member.
        if (zs_.avail_in == 0 && !rawEof_) refill();
        if (zs_.avail_in == 0) {
          finished_ = true;
          if (produced == 0) return traits_type::eof();
          break;
        }
        // Bytes remain past a complete member: a concatenated gzip
        // file. Restart the inflater on the next member.
        const int rrc = inflateReset2(&zs_, 15 + 32);
        if (rrc != Z_OK) throwZlib("inflateReset2", rrc, zs_);
        if (produced > 0) break;
        continue;
      }
      if (rc == Z_BUF_ERROR && produced == 0) {
        // Needs more input but the source is dry: truncated stream.
        MEMX_EXPECTS(!rawEof_, "gzip stream: truncated compressed input");
        continue;
      }
      if (rc != Z_OK) throwZlib("inflate", rc, zs_);
      if (produced == 0 && zs_.avail_in == 0 && rawEof_) {
        throw ContractViolation("gzip stream: truncated compressed input");
      }
    }

    setg(out_.get(), out_.get(), out_.get() + produced);
    return traits_type::to_int_type(*gptr());
  }

private:
  /// Pull the next block of compressed bytes into in_; sets rawEof_
  /// when the underlying stream is exhausted.
  void refill() {
    raw_->read(in_.get(), static_cast<std::streamsize>(bufBytes_));
    const auto got = static_cast<std::size_t>(raw_->gcount());
    if (got == 0) rawEof_ = true;
    compressedBytes_ += got;
    zs_.next_in = reinterpret_cast<Bytef*>(in_.get());
    zs_.avail_in = static_cast<uInt>(got);
  }

  std::istream* raw_;
  std::size_t bufBytes_;
  // Left uninitialized: read() and inflate() write each byte before it
  // is read.
  std::unique_ptr<char[]> in_;
  std::unique_ptr<char[]> out_;
  z_stream zs_{};
  std::uint64_t compressedBytes_ = 0;
  bool live_ = false;
  bool rawEof_ = false;
  bool finished_ = false;
};

/// Deflating streambuf (gzip format: windowBits 15 + 16). The put area
/// is the fixed-size in_ buffer; overflow()/sync() deflate it through
/// out_ onto the raw stream. finish() emits the deflate tail and gzip
/// trailer; afterwards further writes are rejected.
class GzipOutBuf final : public std::streambuf {
public:
  GzipOutBuf(std::ostream& raw, int level, std::size_t bufBytes)
      : raw_(&raw), in_(bufBytes), out_(bufBytes) {
    MEMX_EXPECTS(bufBytes > 0, "gzip buffer size must be positive");
    MEMX_EXPECTS(level == -1 || (level >= 0 && level <= 9),
                 "gzip compression level must be -1 or 0..9");
    std::memset(&zs_, 0, sizeof(zs_));
    const int rc = deflateInit2(&zs_, level, Z_DEFLATED, 15 + 16, 8,
                                Z_DEFAULT_STRATEGY);
    if (rc != Z_OK) throwZlib("deflateInit2", rc, zs_);
    live_ = true;
    setp(in_.data(), in_.data() + in_.size());
  }

  ~GzipOutBuf() override {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; an explicit close() surfaces errors.
    }
    if (live_) {
      deflateEnd(&zs_);
      live_ = false;
    }
  }

  GzipOutBuf(const GzipOutBuf&) = delete;
  GzipOutBuf& operator=(const GzipOutBuf&) = delete;

  /// Deflate everything buffered and write the gzip trailer. Idempotent.
  void finish() {
    if (finished_ || !live_) return;
    deflatePending(Z_FINISH);
    finished_ = true;
    raw_->flush();
    MEMX_ENSURES(raw_->good(), "gzip stream: underlying write failed");
  }

protected:
  int_type overflow(int_type ch) override {
    MEMX_EXPECTS(!finished_, "gzip stream: write after close()");
    deflatePending(Z_NO_FLUSH);
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    if (!finished_) deflatePending(Z_SYNC_FLUSH);
    raw_->flush();
    return raw_->good() ? 0 : -1;
  }

private:
  void deflatePending(int flushMode) {
    zs_.next_in = reinterpret_cast<Bytef*>(pbase());
    zs_.avail_in = static_cast<uInt>(pptr() - pbase());
    int rc = Z_OK;
    do {
      zs_.next_out = reinterpret_cast<Bytef*>(out_.data());
      zs_.avail_out = static_cast<uInt>(out_.size());
      rc = deflate(&zs_, flushMode);
      if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
        throwZlib("deflate", rc, zs_);
      }
      const std::size_t produced = out_.size() - zs_.avail_out;
      if (produced > 0) {
        raw_->write(out_.data(), static_cast<std::streamsize>(produced));
        MEMX_ENSURES(raw_->good(), "gzip stream: underlying write failed");
      }
      // Keep draining while deflate fills the whole output buffer, and,
      // when finishing, until Z_STREAM_END confirms the trailer is out.
    } while (zs_.avail_out == 0 ||
             (flushMode == Z_FINISH && rc != Z_STREAM_END));
    setp(in_.data(), in_.data() + in_.size());
  }

  std::ostream* raw_;
  std::vector<char> in_;
  std::vector<char> out_;
  z_stream zs_{};
  bool live_ = false;
  bool finished_ = false;
};

}  // namespace detail

GzipInputStream::GzipInputStream(std::istream& raw, std::size_t bufBytes)
    : std::istream(nullptr),
      buf_(std::make_unique<detail::GzipInBuf>(raw, bufBytes)) {
  rdbuf(buf_.get());
  // Formatted/unformatted reads catch streambuf exceptions, set badbit
  // and swallow them unless badbit is in the exceptions mask — which
  // would turn a corrupt trace into a silent short read. With the mask
  // set, the original ContractViolation is rethrown to the caller.
  exceptions(std::ios::badbit);
}

GzipInputStream::~GzipInputStream() = default;

std::uint64_t GzipInputStream::compressedBytesRead() const noexcept {
  return buf_->compressedBytesRead();
}

GzipOutputStream::GzipOutputStream(std::ostream& raw, int level,
                                   std::size_t bufBytes)
    : std::ostream(nullptr),
      buf_(std::make_unique<detail::GzipOutBuf>(raw, level, bufBytes)) {
  rdbuf(buf_.get());
}

GzipOutputStream::~GzipOutputStream() = default;

void GzipOutputStream::close() { buf_->finish(); }

#else  // !MEMX_HAVE_ZLIB

bool gzipSupported() noexcept { return false; }

namespace detail {
class GzipInBuf final : public std::streambuf {};
class GzipOutBuf final : public std::streambuf {};
}  // namespace detail

GzipInputStream::GzipInputStream(std::istream&, std::size_t)
    : std::istream(nullptr) {
  throw ContractViolation(
      "gzip stream: this build has no zlib; cannot read compressed traces");
}

GzipInputStream::~GzipInputStream() = default;

std::uint64_t GzipInputStream::compressedBytesRead() const noexcept {
  return 0;
}

GzipOutputStream::GzipOutputStream(std::ostream&, int, std::size_t)
    : std::ostream(nullptr) {
  throw ContractViolation(
      "gzip stream: this build has no zlib; cannot write compressed traces");
}

GzipOutputStream::~GzipOutputStream() = default;

void GzipOutputStream::close() {}

#endif  // MEMX_HAVE_ZLIB

}  // namespace memx
