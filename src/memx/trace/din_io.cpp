#include "memx/trace/din_io.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "memx/util/assert.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx {

void writeDin(std::ostream& os, const Trace& trace) {
  // Streamed integers obey the locale's grouping: pin the classic
  // locale so a grouping-happy global locale cannot corrupt addresses.
  const ClassicLocaleGuard locale(os);
  for (const MemRef& ref : trace) {
    int label = static_cast<int>(DinLabel::Read);
    switch (ref.type) {
      case AccessType::Read:
        label = static_cast<int>(DinLabel::Read);
        break;
      case AccessType::Write:
        label = static_cast<int>(DinLabel::Write);
        break;
      case AccessType::Instr:
        label = static_cast<int>(DinLabel::Ifetch);
        break;
    }
    os << label << ' ' << std::hex << ref.addr << std::dec << '\n';
  }
}

namespace {

[[nodiscard]] bool isSpace(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

[[nodiscard]] bool isDigit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Hex digit values by byte, -1 for non-digits.
constexpr auto kHexValues = [] {
  std::array<signed char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[static_cast<std::size_t>(c)] = static_cast<signed char>(
        c >= '0' && c <= '9'   ? c - '0'
        : c >= 'a' && c <= 'f' ? c - 'a' + 10
        : c >= 'A' && c <= 'F' ? c - 'A' + 10
                               : -1);
  }
  return table;
}();

[[nodiscard]] int hexValue(char c) noexcept {
  return kHexValues[static_cast<unsigned char>(c)];
}

[[nodiscard]] std::string_view skipSpace(std::string_view s) noexcept {
  std::size_t i = 0;
  while (i < s.size() && isSpace(s[i])) ++i;
  return s.substr(i);
}

[[noreturn]] void badLine(std::size_t lineNo, const std::string& what) {
  throw ContractViolation("din line " + std::to_string(lineNo) + ": " + what);
}

}  // namespace

std::optional<MemRef> parseDinLine(std::string_view line, std::size_t lineNo,
                                   std::uint32_t refSize) {
  MEMX_EXPECTS(refSize > 0, "reference size must be positive");

  // Strip trailing comment, then leading whitespace.
  const std::size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  line = skipSpace(line);
  if (line.empty()) return std::nullopt;

  // Label: bare decimal digits, value 0..2. A lenient `>> int` parse
  // would accept "+1"/"-1" and silently skip non-numeric lines; both
  // hide trace corruption, so be strict.
  std::size_t i = 0;
  unsigned label = 0;
  std::size_t labelDigits = 0;
  while (i < line.size() && isDigit(line[i])) {
    label = label * 10 + static_cast<unsigned>(line[i] - '0');
    if (label > 9) label = 10;  // clamp; only 0..2 is ever valid
    ++labelDigits;
    ++i;
  }
  if (labelDigits == 0 || (i < line.size() && !isSpace(line[i]))) {
    badLine(lineNo, "bad label '" + std::string(line.substr(0, line.find_first_of(" \t\r\v\f"))) + "'");
  }
  if (label > 2) {
    badLine(lineNo, "unknown label " + std::to_string(label));
  }

  // Address: unsigned hex, optional 0x/0X prefix. No sign: stoull-style
  // parsing would wrap "-1" to 0xffffffffffffffff.
  std::string_view rest = skipSpace(line.substr(i));
  if (rest.empty()) badLine(lineNo, "missing address");
  const std::string_view addrText =
      rest.substr(0, [&] {
        std::size_t n = 0;
        while (n < rest.size() && !isSpace(rest[n])) ++n;
        return n;
      }());
  std::string_view digits = addrText;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits = digits.substr(2);
  }
  if (digits.empty()) {
    badLine(lineNo, "bad address '" + std::string(addrText) + "'");
  }
  std::uint64_t addr = 0;
  std::size_t significant = 0;
  for (char c : digits) {
    const int v = hexValue(c);
    if (v < 0) badLine(lineNo, "bad address '" + std::string(addrText) + "'");
    if (addr != 0 || v != 0) ++significant;
    if (significant > 16) {
      badLine(lineNo,
              "address '" + std::string(addrText) + "' overflows 64 bits");
    }
    addr = (addr << 4) | static_cast<std::uint64_t>(v);
  }
  // The reference must end at or below 2^64 - 1 (see lastByte).
  if (addr > ~std::uint64_t{0} - (refSize - 1)) {
    badLine(lineNo, "address '" + std::string(addrText) + "' plus " +
                        std::to_string(refSize) +
                        "-byte access runs past 2^64 - 1");
  }

  // Nothing may follow the address — trailing tokens used to be
  // silently dropped, which turned column misalignment into a
  // wrong-but-plausible trace.
  const std::string_view tail = skipSpace(rest.substr(addrText.size()));
  if (!tail.empty()) {
    badLine(lineNo, "trailing garbage '" + std::string(tail) + "'");
  }

  AccessType type = AccessType::Read;
  if (label == static_cast<unsigned>(DinLabel::Write)) {
    type = AccessType::Write;
  } else if (label == static_cast<unsigned>(DinLabel::Ifetch)) {
    type = AccessType::Instr;
  }
  return MemRef{addr, refSize, type};
}

DinStreamSource::DinStreamSource(std::istream& is, std::uint32_t refSize)
    : is_(&is), refSize_(refSize) {
  MEMX_EXPECTS(refSize > 0, "reference size must be positive");
}

std::optional<MemRef> DinStreamSource::next() { return nextFromFill(); }

std::size_t DinStreamSource::fill(MemRef* out, std::size_t max) {
  static constexpr AccessType kTypes[] = {AccessType::Read, AccessType::Write,
                                          AccessType::Instr};
  std::size_t n = 0;
  while (n < max) {
    if (pos_ == wholeEnd_ && !refill()) break;
    // [pos_, wholeEnd_) is whole lines, each ending in '\n'; no scan
    // below reads past the newline of the line it starts on.
    const char* line = buf_.data() + pos_;
    ++lineNo_;
    const unsigned label = static_cast<unsigned char>(line[0]) - '0';
    if (label <= 2 && line[1] == ' ') {
      std::uint64_t addr = 0;
      std::size_t i = 2;
      for (int v = 0; i < 18 && (v = hexValue(line[i])) >= 0; ++i) {
        addr = (addr << 4) | static_cast<std::uint64_t>(v);
      }
      // A reference wrapping past 2^64 - 1 falls through to
      // parseDinLine, which reports it.
      if (i > 2 && line[i] == '\n' &&
          addr <= ~std::uint64_t{0} - (refSize_ - 1)) {
        out[n++] = MemRef{addr, refSize_, kTypes[label]};
        pos_ += i + 1;
        continue;
      }
    }
    const auto* newline = static_cast<const char*>(
        std::memchr(line, '\n', wholeEnd_ - pos_));
    const std::string_view text(line,
                                static_cast<std::size_t>(newline - line));
    pos_ += text.size() + 1;
    if (auto ref = parseDinLine(text, lineNo_, refSize_)) out[n++] = *ref;
  }
  refsDecoded_ += n;
  return n;
}

bool DinStreamSource::refill() {
  if (buf_.empty()) buf_.resize(kBlockBytes);
  std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
  end_ -= pos_;
  pos_ = 0;
  wholeEnd_ = 0;
  for (;;) {
    if (eof_) {
      if (end_ == 0) return false;
      if (end_ == buf_.size()) buf_.resize(buf_.size() + 1);
      buf_[end_++] = '\n';
      wholeEnd_ = end_;
      return true;
    }
    // A line longer than the block: grow until it fits.
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const std::size_t want = buf_.size() - end_;
    is_->read(buf_.data() + end_, static_cast<std::streamsize>(want));
    MEMX_EXPECTS(!is_->bad(), "din stream: read error after line " +
                                  std::to_string(lineNo_));
    const auto got = static_cast<std::size_t>(is_->gcount());
    eof_ = got < want;
    // Only the new bytes can hold a newline: the kept tail has none.
    for (std::size_t i = end_ + got; i > end_; --i) {
      if (buf_[i - 1] == '\n') {
        wholeEnd_ = i;
        break;
      }
    }
    end_ += got;
    if (wholeEnd_ != 0) return true;
  }
}

Trace readDin(std::istream& is, std::uint32_t refSize) {
  DinStreamSource source(is, refSize);
  return drain(source);
}

std::string toDinString(const Trace& trace) {
  std::ostringstream os;
  writeDin(os, trace);
  return os.str();
}

Trace fromDinString(const std::string& text, std::uint32_t refSize) {
  std::istringstream is(text);
  return readDin(is, refSize);
}

}  // namespace memx
