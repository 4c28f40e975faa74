// Minimal JSON document model + recursive-descent parser.
//
// Just enough of RFC 8259 to round-trip what JsonWriter emits (and what
// other tools writing the same reports would produce): objects, arrays,
// strings with the standard escapes (ASCII \u only), numbers, booleans
// and null. The campaign result store uses it to read JSONL lines back;
// the CLI tests use it to validate every report document. Any syntax
// error throws JsonError with the byte offset, so a corrupt store line
// is distinguishable from a missing field.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace prestage::json {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Object member access; throws JsonError when the key is absent.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const {
    return object.count(key) > 0;
  }

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  /// The number, checked: throws JsonError on a non-Number value.
  [[nodiscard]] double as_number() const;
  /// The number as a count, checked: throws JsonError unless it is an
  /// integral Number in [0, 2^64).
  [[nodiscard]] std::uint64_t as_u64() const;
  /// The string, checked: throws JsonError on a non-String value.
  [[nodiscard]] const std::string& as_string() const;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace prestage::json
