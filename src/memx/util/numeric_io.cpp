#include "memx/util/numeric_io.hpp"

#include <charconv>
#include <cmath>

#include "memx/util/assert.hpp"

namespace memx {

std::optional<double> parseDoubleText(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parseUnsignedText(std::string_view text,
                                               std::uint64_t max) noexcept {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || value > max) return std::nullopt;
  return value;
}

namespace {

/// Write `v` as "%.17g" into `buf` and return its length. The buffer
/// holds the longest output, so a failed conversion is a bug, not a
/// truncation.
std::size_t toChars17(char (&buf)[kDouble17Chars], double v) {
  const auto [end, ec] = std::to_chars(buf, buf + kDouble17Chars, v,
                                       std::chars_format::general, 17);
  MEMX_ENSURES(ec == std::errc(), "double does not fit its %.17g buffer");
  return static_cast<std::size_t>(end - buf);
}

}  // namespace

std::string formatDouble17(double v) {
  char buf[kDouble17Chars];
  return std::string(buf, toChars17(buf, v));
}

void appendDouble17(std::string& out, double v) {
  char buf[kDouble17Chars];
  out.append(buf, toChars17(buf, v));
}

}  // namespace memx
