#include "memx/serve/json.hpp"

#include <charconv>
#include <cmath>

#include "memx/util/assert.hpp"
#include "memx/util/json_escape.hpp"
#include "memx/util/numeric_io.hpp"

namespace memx::serve {

namespace {

// Nesting bound: a hostile request of 1 MiB of '[' must not overflow
// the stack of a recursive-descent parser.
constexpr int kMaxDepth = 64;

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON error at byte " + std::to_string(pos_) + ": " +
                    what);
  }

  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= text_.size(); }

  [[nodiscard]] char peek() const {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skipWs() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expectLiteral(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  JsonValue parseValue(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skipWs();
    switch (peek()) {
      case 'n':
        expectLiteral("null");
        return JsonValue(nullptr);
      case 't':
        expectLiteral("true");
        return JsonValue(true);
      case 'f':
        expectLiteral("false");
        return JsonValue(false);
      case '"':
        return JsonValue(parseString());
      case '[':
        return parseArray(depth);
      case '{':
        return parseObject(depth);
      default:
        return parseNumber();
    }
  }

  JsonValue parseArray(int depth) {
    ++pos_;  // '['
    JsonValue::Array items;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    while (true) {
      items.push_back(parseValue(depth + 1));
      skipWs();
      const char c = take();
      if (c == ']') return JsonValue(std::move(items));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  JsonValue parseObject(int depth) {
    ++pos_;  // '{'
    JsonValue::Object members;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skipWs();
      if (peek() != '"') fail("expected string key in object");
      std::string key = parseString();
      skipWs();
      if (take() != ':') {
        --pos_;
        fail("expected ':' after object key");
      }
      if (members.contains(key)) {
        fail("duplicate object key \"" + key + "\"");
      }
      members.emplace(std::move(key), parseValue(depth + 1));
      skipWs();
      const char c = take();
      if (c == '}') return JsonValue(std::move(members));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  [[nodiscard]] unsigned hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      unsigned digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<unsigned>(c - 'A') + 10;
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
      value = value * 16 + digit;
    }
    return value;
  }

  void appendUtf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("unpaired surrogate in \\u escape");
            }
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && text_[pos_] == '-') ++pos_;
    // Integer part: JSON forbids leading zeros ("01") and a bare "-".
    if (atEnd()) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t digits = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++digits;
      }
      if (digits == 0) fail("invalid number: missing fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::size_t digits = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++digits;
      }
      if (digits == 0) fail("invalid number: missing exponent digits");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size() ||
        !std::isfinite(value)) {
      fail("number out of range");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dumpString(std::string& out, const std::string& s) {
  out += '"';
  memx::appendJsonEscaped(out, s);
  out += '"';
}

void dumpNumber(std::string& out, double v) {
  // 2^53: the largest range where every integer is exact in a double.
  constexpr double kIntExact = 9007199254740992.0;
  if (v == 0.0) {
    out += '0';
    return;
  }
  if (std::nearbyint(v) == v && std::abs(v) <= kIntExact) {
    char buf[20];  // "-9223372036854775808"
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
    MEMX_ENSURES(ec == std::errc(), "integer does not fit its buffer");
    out.append(buf, end);
    return;
  }
  memx::appendDouble17(out, v);
}

void dumpValue(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      out += "null";
      break;
    case JsonValue::Kind::Bool:
      out += v.asBool() ? "true" : "false";
      break;
    case JsonValue::Kind::Number:
      dumpNumber(out, v.asNumber());
      break;
    case JsonValue::Kind::String:
      dumpString(out, v.asString());
      break;
    case JsonValue::Kind::Array: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.asArray()) {
        if (!first) out += ',';
        first = false;
        dumpValue(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.asObject()) {
        if (!first) out += ',';
        first = false;
        dumpString(out, key);
        out += ':';
        dumpValue(out, value);
      }
      out += '}';
      break;
    }
  }
}

[[noreturn]] void kindMismatch(const char* wanted) {
  throw JsonError(std::string("JSON value is not ") + wanted);
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

bool JsonValue::asBool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  kindMismatch("a boolean");
}

double JsonValue::asNumber() const {
  if (const double* n = std::get_if<double>(&value_)) return *n;
  kindMismatch("a number");
}

const std::string& JsonValue::asString() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  kindMismatch("a string");
}

const JsonValue::Array& JsonValue::asArray() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  kindMismatch("an array");
}

const JsonValue::Object& JsonValue::asObject() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  kindMismatch("an object");
}

JsonValue::Object& JsonValue::asObject() {
  if (Object* o = std::get_if<Object>(&value_)) return *o;
  kindMismatch("an object");
}

std::uint64_t JsonValue::asUnsigned(std::uint64_t max) const {
  const double n = asNumber();
  if (n < 0.0 || std::nearbyint(n) != n) {
    throw JsonError("JSON number is not a non-negative integer");
  }
  if (n > 9007199254740992.0 || static_cast<std::uint64_t>(n) > max) {
    throw JsonError("JSON integer exceeds allowed maximum " +
                    std::to_string(max));
  }
  return static_cast<std::uint64_t>(n);
}

std::string JsonValue::dump() const {
  std::string out;
  dumpValue(out, *this);
  return out;
}

}  // namespace memx::serve
