// Minimal strict JSON tree for the serve protocol.
//
// Requests arrive as newline-delimited JSON from untrusted clients, so
// the parser is strict RFC 8259 (no trailing commas, no comments, full
// escape handling including surrogate pairs), bounds nesting depth, and
// reports the byte offset of every syntax error — a malformed request
// must come back as a diagnostic, never as UB or a crash. Numbers parse
// through std::from_chars and serialize through std::to_chars, neither
// of which reads a locale, so the daemon behaves identically under any
// LC_NUMERIC.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace memx::serve {

/// Thrown on malformed JSON (parse) and kind mismatches (accessors).
class JsonError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One JSON value. Objects keep sorted key order (std::map), which
/// makes serialized responses deterministic.
class JsonValue {
public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  /// Any arithmetic type lands in the Number kind (stored as double;
  /// integers beyond 2^53 lose exactness, like everywhere in JSON).
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  JsonValue(T n) : value_(static_cast<double>(n)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error). Throws JsonError naming the byte offset.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(value_.index());
  }
  [[nodiscard]] bool isNull() const noexcept { return kind() == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept { return kind() == Kind::Bool; }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind() == Kind::Number;
  }
  [[nodiscard]] bool isString() const noexcept {
    return kind() == Kind::String;
  }
  [[nodiscard]] bool isArray() const noexcept { return kind() == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept {
    return kind() == Kind::Object;
  }

  /// Checked accessors; throw JsonError on a kind mismatch.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;
  [[nodiscard]] Object& asObject();

  /// Integer view of a Number: must be integral and within [0, max].
  [[nodiscard]] std::uint64_t asUnsigned(std::uint64_t max) const;

  /// Serialize compactly (no whitespace). Numbers round-trip (%.17g
  /// equivalent); integral values within 2^53 print without exponent or
  /// decimal point. Locale-independent.
  [[nodiscard]] std::string dump() const;

private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace memx::serve
