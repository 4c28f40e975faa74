#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace prestage::json {

const Value& Value::at(const std::string& key) const {
  const auto it = object.find(key);
  if (it == object.end()) throw JsonError("missing key: " + key);
  return it->second;
}

double Value::as_number() const {
  if (kind != Kind::Number) throw JsonError("expected a number");
  return number;
}

std::uint64_t Value::as_u64() const {
  const double n = as_number();
  // 2^64 is exact as a double; NaN fails every comparison.
  if (!(n >= 0.0 && n < 18446744073709551616.0) || std::floor(n) != n) {
    throw JsonError("expected an unsigned integer");
  }
  return static_cast<std::uint64_t>(n);
}

const std::string& Value::as_string() const {
  if (kind != Kind::String) throw JsonError("expected a string");
  return string;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON error at offset " + std::to_string(pos_) + ": " +
                    what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Depth cap: the parser recurses per nesting level, and callers
        // (the campaign store) feed it untrusted lines that must fail
        // with JsonError, never a stack overflow.
        if (depth_ >= kMaxDepth) fail("nesting too deep");
        ++depth_;
        Value v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!v.object.emplace(std::move(key), parse_value()).second) {
        fail("duplicate key");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          pos_ += 4;
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    Value v;
    v.kind = Value::Kind::Number;
    v.number = parsed;
    return v;
  }

  Value parse_bool() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected true/false");
    }
    return v;
  }

  Value parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("expected null");
    pos_ += 4;
    return Value{};
  }

  static constexpr std::size_t kMaxDepth = 128;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace prestage::json
