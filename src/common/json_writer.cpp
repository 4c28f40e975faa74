#include "common/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "common/prestage_assert.hpp"

namespace prestage {

JsonWriter::JsonWriter(std::ostream& out, Style style)
    : out_(out), style_(style) {}

void JsonWriter::before_value() {
  PRESTAGE_ASSERT(!root_done_, "JSON document already complete");
  if (stack_.empty()) return;
  if (stack_.back() == Scope::Object) {
    PRESTAGE_ASSERT(have_key_, "object member needs a key first");
    have_key_ = false;
    return;  // key() already placed comma/indent
  }
  if (!first_in_scope_) out_ << ',';
  newline_indent();
  first_in_scope_ = false;
}

void JsonWriter::after_value() {
  if (!stack_.empty()) return;
  root_done_ = true;
  if (style_ == Style::Pretty) out_ << '\n';
}

void JsonWriter::newline_indent() {
  if (style_ == Style::Compact) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::begin_object() {
  before_value();
  out_ << '{';
  stack_.push_back(Scope::Object);
  first_in_scope_ = true;
}

void JsonWriter::end_object() {
  PRESTAGE_ASSERT(!stack_.empty() && stack_.back() == Scope::Object,
                  "end_object without matching begin_object");
  PRESTAGE_ASSERT(!have_key_, "dangling key at end_object");
  stack_.pop_back();
  if (!first_in_scope_) newline_indent();
  out_ << '}';
  first_in_scope_ = false;
  after_value();
}

void JsonWriter::begin_array() {
  before_value();
  out_ << '[';
  stack_.push_back(Scope::Array);
  first_in_scope_ = true;
}

void JsonWriter::end_array() {
  PRESTAGE_ASSERT(!stack_.empty() && stack_.back() == Scope::Array,
                  "end_array without matching begin_array");
  stack_.pop_back();
  if (!first_in_scope_) newline_indent();
  out_ << ']';
  first_in_scope_ = false;
  after_value();
}

void JsonWriter::key(std::string_view k) {
  PRESTAGE_ASSERT(!stack_.empty() && stack_.back() == Scope::Object,
                  "key() outside an object");
  PRESTAGE_ASSERT(!have_key_, "two keys in a row");
  if (!first_in_scope_) out_ << ',';
  newline_indent();
  first_in_scope_ = false;
  write_escaped(k);
  out_ << (style_ == Style::Compact ? ":" : ": ");
  have_key_ = true;
}

void JsonWriter::write_escaped(std::string_view s) {
  out_ << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ << "\\\""; break;
      case '\\': out_ << "\\\\"; break;
      case '\b': out_ << "\\b"; break;
      case '\f': out_ << "\\f"; break;
      case '\n': out_ << "\\n"; break;
      case '\r': out_ << "\\r"; break;
      case '\t': out_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ << buf;
        } else {
          out_ << c;
        }
    }
  }
  out_ << '"';
}

void JsonWriter::value(std::string_view s) {
  before_value();
  write_escaped(s);
  after_value();
}

void JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ << "null";  // JSON has no NaN/Inf
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out_ << buf;
  }
  after_value();
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ << v;
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  out_ << v;
  after_value();
}

void JsonWriter::value(bool v) {
  before_value();
  out_ << (v ? "true" : "false");
  after_value();
}

bool JsonWriter::done() const { return root_done_; }

}  // namespace prestage
