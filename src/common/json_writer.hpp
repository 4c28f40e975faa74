// Minimal streaming JSON writer for machine-readable reports and the
// campaign result store.
//
// No third-party JSON dependency: the writer tracks the open
// object/array stack so commas and indentation are always placed
// correctly, and escapes strings per RFC 8259 (every control character,
// including \b and \f, plus quote and backslash). Non-finite doubles
// have no JSON representation and are emitted as `null`. Misuse (e.g.
// two keys in a row, value at object scope without a key) trips
// PRESTAGE_ASSERT.
//
// Style::Pretty indents with two spaces and ends the document with a
// newline; Style::Compact emits a single line with no whitespace at all,
// which is what the append-only JSONL result store needs (one record per
// line, the caller owns the trailing '\n').
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace prestage {

class JsonWriter {
 public:
  enum class Style : std::uint8_t { Pretty, Compact };

  explicit JsonWriter(std::ostream& out, Style style = Style::Pretty);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(bool v);

  /// key() + value() in one call.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// True once the document (one top-level value) is complete.
  [[nodiscard]] bool done() const;

 private:
  enum class Scope : std::uint8_t { Object, Array };

  void before_value();
  void after_value();
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream& out_;
  Style style_;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;
  bool have_key_ = false;
  bool root_done_ = false;
};

}  // namespace prestage
