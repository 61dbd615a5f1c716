// The one JSON codec every ppd file format and wire message goes through:
// checkpoints, quarantine reports, metrics snapshots, traces, JSON logs,
// lint reports, the service's result events, STATS replies and journal.
//
// The writer and the reader are inverses: parse(quote(s)).as_string() == s
// for every byte string s. The reader is a small recursive-descent parser
// for the JSON these writers emit, not a general-purpose JSON library:
// \u escapes beyond U+00FF are rejected (quote only ever writes \u00xx) and
// nesting is capped at 32 levels.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppd::util::json {

/// `s` as a JSON string literal, surrounding quotes included. Escapes `"`,
/// `\`, `\n`, `\r` and `\t`, writes `\u00xx` (lowercase hex) for every
/// other byte below 0x20 and passes all other bytes through unchanged.
[[nodiscard]] std::string quote(std::string_view s);

/// One parsed JSON value. Scalars keep their text in `scalar` (strings
/// already unescaped, numbers as written); objects keep their members in
/// document order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  std::string scalar;  ///< number text / "true" / "false" / string bytes
  std::vector<std::pair<std::string, Value>> members;  ///< kObject
  std::vector<Value> items;                            ///< kArray

  /// First member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Like find, but throws ppd::ParseError when the member is absent.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] double as_number() const;  ///< throws unless kNumber
  /// Throws unless the value is a number written as plain decimal digits
  /// that fit in 64 bits: no sign, fraction, exponent or overflow.
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] bool as_bool() const;                ///< throws unless kBool
  [[nodiscard]] const std::string& as_string() const;  ///< unless kString
};

/// Parse one complete JSON document; surrounding JSON whitespace (space,
/// tab, newline, carriage return) is allowed, anything else after the
/// document is not. Every failure is a ppd::ParseError naming the byte
/// offset.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace ppd::util::json
