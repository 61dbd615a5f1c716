#include "ppd/util/json.hpp"

#include <cstdlib>

#include "ppd/util/error.hpp"

namespace ppd::util::json {

std::string quote(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
  return out;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("malformed JSON: " + what);
}

constexpr int kMaxDepth = 32;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (i_ != s_.size()) fail_at("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) const {
    fail(what + " at byte " + std::to_string(i_));
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }

  /// Skip whitespace, then consume `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail_at(std::string("expected '") + c + "'");
  }

  Value value(int depth) {
    if (depth > kMaxDepth)
      fail_at("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    skip_ws();
    if (i_ >= s_.size()) fail_at("missing value");
    Value v;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Value::Kind::kObject;
      if (eat('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.members.emplace_back(std::move(key), value(depth + 1));
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      v.kind = Value::Kind::kArray;
      if (eat(']')) return v;
      do {
        v.items.push_back(value(depth + 1));
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.scalar = string();
    } else if (c == '-' || is_digit(c)) {
      v.kind = Value::Kind::kNumber;
      v.scalar = number();
    } else {
      for (const std::string_view word : {"null", "true", "false"}) {
        if (!s_.substr(i_).starts_with(word)) continue;
        v.kind = word == "null" ? Value::Kind::kNull : Value::Kind::kBool;
        v.scalar = word;
        i_ += word.size();
        return v;
      }
      fail_at(std::string("unexpected character '") + c + "'");
    }
    return v;
  }

  /// The string whose opening quote is at the cursor.
  std::string string() {
    if (i_ >= s_.size() || s_[i_] != '"') fail_at("expected '\"'");
    ++i_;
    std::string out;
    for (;;) {
      std::size_t run = i_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\' &&
             static_cast<unsigned char>(s_[run]) >= 0x20)
        ++run;
      out.append(s_, i_, run - i_);
      i_ = run;
      if (i_ >= s_.size()) fail_at("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') fail_at("raw control byte in string");
      if (i_ >= s_.size()) fail_at("dangling escape");
      switch (s_[i_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (s_.size() - i_ < 4) fail_at("truncated \\u escape");
          int code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (is_digit(h)) code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else fail_at("bad \\u escape digit");
          }
          // quote only ever writes \u00xx; reject wider code points rather
          // than mis-decode them.
          if (code > 0xff) fail_at("\\u escape beyond U+00FF");
          out += static_cast<char>(code);
          break;
        }
        default: fail_at("unknown escape");
      }
    }
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  std::string number() {
    const std::size_t start = i_;
    const auto digits = [this] {
      const std::size_t from = i_;
      while (i_ < s_.size() && is_digit(s_[i_])) ++i_;
      if (i_ == from) fail_at("expected a digit");
    };
    if (s_[i_] == '-') ++i_;
    if (i_ < s_.size() && s_[i_] == '0') {
      ++i_;
    } else {
      digits();
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      digits();
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      digits();
    }
    return std::string(s_.substr(start, i_ - start));
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) fail("missing member \"" + std::string(key) + "\"");
  return *v;
}

double Value::as_number() const {
  if (kind != Kind::kNumber) fail("value is not a number");
  // The parser admitted only the JSON number grammar, which strtod reads
  // in full.
  return std::strtod(scalar.c_str(), nullptr);
}

std::uint64_t Value::as_uint() const {
  if (kind != Kind::kNumber) fail("value is not a number");
  std::uint64_t v = 0;
  for (const char c : scalar) {
    if (!is_digit(c)) fail("not an unsigned integer: " + scalar);
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10)
      fail("integer overflows 64 bits: " + scalar);
    v = v * 10 + d;
  }
  return v;
}

bool Value::as_bool() const {
  if (kind != Kind::kBool) fail("value is not a bool");
  return scalar == "true";
}

const std::string& Value::as_string() const {
  if (kind != Kind::kString) fail("value is not a string");
  return scalar;
}

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace ppd::util::json
