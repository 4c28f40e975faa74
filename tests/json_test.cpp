// JsonWriter/json::parse coverage: escaping of every control character,
// non-finite doubles as null, compact-vs-pretty styles, and parser error
// paths. The campaign store round-trips arbitrary stat values through
// this pair, so writer output must always re-parse to the same data.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "common/prestage_assert.hpp"

namespace {

using prestage::JsonWriter;
namespace json = prestage::json;

std::string write_string_value(const std::string& s) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  json.field("s", s);
  json.end_object();
  return out.str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndNamedControls) {
  EXPECT_EQ(write_string_value("a\"b"), R"({"s":"a\"b"})");
  EXPECT_EQ(write_string_value("a\\b"), R"({"s":"a\\b"})");
  EXPECT_EQ(write_string_value("a\nb"), R"({"s":"a\nb"})");
  EXPECT_EQ(write_string_value("a\rb"), R"({"s":"a\rb"})");
  EXPECT_EQ(write_string_value("a\tb"), R"({"s":"a\tb"})");
  EXPECT_EQ(write_string_value("a\bb"), R"({"s":"a\bb"})");
  EXPECT_EQ(write_string_value("a\fb"), R"({"s":"a\fb"})");
}

TEST(JsonWriter, EscapesEveryRemainingControlCharacterAsU) {
  // \x01 and \x1f have no shorthand; both must become \u00XX (and the
  // high bit must not leak through the char -> unsigned conversion).
  EXPECT_EQ(write_string_value(std::string(1, '\x01')), R"({"s":"\u0001"})");
  EXPECT_EQ(write_string_value(std::string(1, '\x1f')), R"({"s":"\u001f"})");
  // Every control character round-trips through the parser.
  for (int c = 1; c < 0x20; ++c) {
    const std::string original(1, static_cast<char>(c));
    const json::Value doc = json::parse(write_string_value(original));
    EXPECT_EQ(doc.at("s").as_string(), original) << "control char " << c;
  }
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  json.field("nan", std::numeric_limits<double>::quiet_NaN());
  json.field("inf", std::numeric_limits<double>::infinity());
  json.field("ninf", -std::numeric_limits<double>::infinity());
  json.field("ok", 1.5);
  json.end_object();
  EXPECT_EQ(out.str(), R"({"nan":null,"inf":null,"ninf":null,"ok":1.5})");

  const json::Value doc = json::parse(out.str());
  EXPECT_TRUE(doc.at("nan").is_null());
  EXPECT_TRUE(doc.at("inf").is_null());
  EXPECT_TRUE(doc.at("ninf").is_null());
  EXPECT_EQ(doc.at("ok").as_number(), 1.5);
}

TEST(JsonWriter, CompactStyleIsOneLineWithNoTrailingNewline) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  json.field("a", std::uint64_t{1});
  json.key("b");
  json.begin_array();
  json.value(std::uint64_t{2});
  json.value("x");
  json.end_array();
  json.end_object();
  EXPECT_TRUE(json.done());
  EXPECT_EQ(out.str(), R"({"a":1,"b":[2,"x"]})");
  EXPECT_EQ(out.str().find('\n'), std::string::npos);
}

TEST(JsonWriter, PrettyStyleIndentsAndEndsWithNewline) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("a", std::uint64_t{1});
  json.end_object();
  EXPECT_EQ(out.str(), "{\n  \"a\": 1\n}\n");
}

TEST(JsonWriter, MisuseTripsAssert) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("a");
  EXPECT_THROW(json.key("b"), prestage::SimError);  // two keys in a row
}

TEST(JsonParser, ParsesNestedDocumentsAndAllScalarKinds) {
  const json::Value doc = json::parse(
      R"({"obj":{"n":-2.5e3,"t":true,"f":false,"z":null},"arr":[1,"two"]})");
  EXPECT_EQ(doc.at("obj").at("n").as_number(), -2500.0);
  EXPECT_TRUE(doc.at("obj").at("t").boolean);
  EXPECT_FALSE(doc.at("obj").at("f").boolean);
  EXPECT_TRUE(doc.at("obj").at("z").is_null());
  ASSERT_EQ(doc.at("arr").array.size(), 2u);
  EXPECT_EQ(doc.at("arr").array[1].as_string(), "two");
  EXPECT_TRUE(doc.has("obj"));
  EXPECT_FALSE(doc.has("missing"));
  EXPECT_THROW((void)doc.at("missing"), json::JsonError);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), json::JsonError);
  EXPECT_THROW(json::parse("{"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::JsonError);
  EXPECT_THROW(json::parse("[1,2"), json::JsonError);
  EXPECT_THROW(json::parse("\"unterminated"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"), json::JsonError);
  EXPECT_THROW(json::parse("1.2.3"), json::JsonError);
  EXPECT_THROW(json::parse("{\"a\":\"\\q\"}"), json::JsonError);
  EXPECT_THROW(json::parse("nul"), json::JsonError);
}

TEST(JsonParser, RejectsExcessiveNestingInsteadOfOverflowingTheStack) {
  // The campaign store feeds untrusted lines to the parser; a deeply
  // nested document must fail with JsonError, not SIGSEGV.
  EXPECT_THROW(json::parse(std::string(100000, '[')), json::JsonError);
  // Depth within the cap still parses.
  std::string ok = std::string(100, '[') + std::string(100, ']');
  EXPECT_EQ(json::parse(ok).kind, json::Value::Kind::Array);
}

TEST(JsonParser, CheckedAccessorsValidateKinds) {
  const json::Value doc = json::parse(R"({"s":"x","n":3})");
  EXPECT_THROW((void)doc.at("s").as_number(), json::JsonError);
  EXPECT_THROW((void)doc.at("n").as_string(), json::JsonError);
}

TEST(JsonParser, U64AccessorAcceptsOnlyIntegersInRange) {
  // Store and sidecar counts are read through as_u64: a value with no
  // uint64 equivalent must be a JsonError, never a wrapped or truncated
  // count (or a float-cast-overflow abort in a sanitizer build).
  for (const char* bad : {"-1", "4096.5", "1e300", "18446744073709551616",
                          "\"7\""}) {
    EXPECT_THROW((void)json::parse(bad).as_u64(), json::JsonError) << bad;
  }
  EXPECT_EQ(json::parse("0").as_u64(), 0u);
  EXPECT_EQ(json::parse("9007199254740992").as_u64(), 9007199254740992u);
}

}  // namespace
