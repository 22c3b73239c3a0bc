// JSON string escaping for the hand-written JSON writers (result files,
// run reports): one escaper, so every writer emits valid JSON for any
// name a workload, span or counter can carry.
#pragma once

#include <string>
#include <string_view>

namespace memx {

/// `s` with JSON string escapes applied (quotes, backslashes, control
/// characters), without the surrounding quotes.
[[nodiscard]] std::string jsonEscape(std::string_view s);

}  // namespace memx
