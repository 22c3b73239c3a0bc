// Locale-independent numeric text I/O.
//
// Every CSV/JSON surface in memx is machine-read: a daemon started under
// de_DE.UTF-8 must neither emit "3,14" nor reject "3.14". Parsing goes
// through std::from_chars (locale-blind by specification) and fails
// closed: the full field must be consumed and doubles must be finite.
// Doubles format through std::to_chars(general, 17), which the standard
// defines as C-locale "%.17g" and which never reads a locale, so the
// bytes match the convention the golden corpus and the benchmark JSON
// files were recorded with, whatever the process-global locale.
// ClassicLocaleGuard pins the classic locale for the writers that still
// stream integers into a caller's std::ostream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ios>
#include <locale>
#include <optional>
#include <string>
#include <string_view>

namespace memx {

/// Strict double parse: the whole field, finite, locale-independent.
/// Rejects empty fields, leading whitespace/'+', trailing garbage,
/// overflow ("1e999"), underflow, "nan"/"inf" and hex floats.
[[nodiscard]] std::optional<double> parseDoubleText(
    std::string_view text) noexcept;

/// Strict unsigned parse: decimal digits only, fully consumed, <= max.
[[nodiscard]] std::optional<std::uint64_t> parseUnsignedText(
    std::string_view text, std::uint64_t max) noexcept;

/// Longest formatDouble17 text: "-2.2250738585072014e-308" and
/// "-1.7976931348623157e+308" are 24 chars.
inline constexpr std::size_t kDouble17Chars = 24;

/// `v` formatted like C-locale "%.17g": shortest-in-style general form
/// at 17 significant digits, '.' decimal point, round-trip exact.
[[nodiscard]] std::string formatDouble17(double v);

/// Append formatDouble17(v) to `out` without a temporary string, for
/// writers that build one buffer.
void appendDouble17(std::string& out, double v);

/// Imbue std::locale::classic() on a stream for the current scope and
/// restore the previous locale on destruction. Wrap every writer that
/// streams doubles into a caller-supplied std::ostream with this so a
/// hostile global locale cannot leak group separators or ','-decimals
/// into machine-read output (the caller's locale choice is restored).
class ClassicLocaleGuard {
public:
  explicit ClassicLocaleGuard(std::ios_base& stream)
      : stream_(stream), saved_(stream.imbue(std::locale::classic())) {}
  ~ClassicLocaleGuard() { stream_.imbue(saved_); }

  ClassicLocaleGuard(const ClassicLocaleGuard&) = delete;
  ClassicLocaleGuard& operator=(const ClassicLocaleGuard&) = delete;

private:
  std::ios_base& stream_;
  std::locale saved_;
};

}  // namespace memx
