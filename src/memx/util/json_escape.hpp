// JSON string escaping for every JSON writer (result files, run reports,
// the serve protocol): one escaper, so every writer emits valid JSON for
// any name a workload, span or counter can carry.
#pragma once

#include <string>
#include <string_view>

namespace memx {

/// Append `s` to `out` with JSON string escapes applied, without the
/// surrounding quotes: `\" \\ \b \f \n \r \t`, `\u00xx` for the other
/// control bytes, every other byte (0x7F and UTF-8 included) verbatim.
/// Each run of bytes that needs no escape is copied in one append.
void appendJsonEscaped(std::string& out, std::string_view s);

/// `s` with JSON string escapes applied, without the surrounding quotes.
[[nodiscard]] std::string jsonEscape(std::string_view s);

}  // namespace memx
