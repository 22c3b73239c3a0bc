#include "memx/util/json_escape.hpp"

namespace memx {

void appendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the escape-free run not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

}  // namespace memx
