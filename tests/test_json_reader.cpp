// Unit tests for the tests' strict JSON reader (json_reader.hpp), and its
// round trip with the program's JsonWriter.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "json_reader.hpp"

namespace hlsprof {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_EQ(json_parse("true").as_bool(), true);
  EXPECT_EQ(json_parse("false").as_bool(), false);
  EXPECT_EQ(json_parse("42").as_int64(), 42);
  EXPECT_EQ(json_parse("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(json_parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(json_parse("  \"pad\"  ").as_string(), "pad")
      << "surrounding whitespace is fine";
}

TEST(Json, IntegerExactnessIsTracked) {
  // Written as an integer: as_int64 works, as_double too.
  const JsonValue i = json_parse("9007199254740993");  // > 2^53
  EXPECT_EQ(i.as_int64(), 9007199254740993LL);
  // Written with a fraction/exponent: integers are not recoverable.
  EXPECT_THROW(json_parse("2.0").as_int64(), Error);
  EXPECT_THROW(json_parse("1e2").as_int64(), Error);
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue v = json_parse(
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":true},\"e\":\"x\"}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_int64(), 1);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_EQ(v.find("c")->find("d")->as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.members().size(), 3u);
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(json_parse("\"a\\n\\t\\\"\\\\\\/b\"").as_string(),
            "a\n\t\"\\/b");
  // \u0041 = 'A'; \u00e9 = é (2-byte UTF-8).
  EXPECT_EQ(json_parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(json_parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, WriterOutputRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object();
  w.field("name", std::string("line1\nline2 \"quoted\" \x01"));
  w.field("count", std::int64_t(123));
  w.field("ratio", 0.25);
  w.key("list").begin_array().value(true).value(false).end_array();
  w.end_object();

  const JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.find("name")->as_string(), "line1\nline2 \"quoted\" \x01");
  EXPECT_EQ(v.find("count")->as_int64(), 123);
  EXPECT_DOUBLE_EQ(v.find("ratio")->as_double(), 0.25);
  EXPECT_EQ(v.find("list")->items().size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), Error);
  EXPECT_THROW(json_parse("{"), Error);
  EXPECT_THROW(json_parse("{\"a\":}"), Error);
  EXPECT_THROW(json_parse("[1,]"), Error);
  EXPECT_THROW(json_parse("{\"a\":1,}"), Error);
  EXPECT_THROW(json_parse("'single'"), Error);
  EXPECT_THROW(json_parse("01"), Error);
  EXPECT_THROW(json_parse("1."), Error);
  EXPECT_THROW(json_parse("+1"), Error);
  EXPECT_THROW(json_parse("nulL"), Error);
  EXPECT_THROW(json_parse("\"unterminated"), Error);
  EXPECT_THROW(json_parse("\"bad\\q\""), Error);
  EXPECT_THROW(json_parse("\"half pair \\ud83d\""), Error);
  EXPECT_THROW(json_parse("{} extra"), Error) << "trailing bytes";
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW(json_parse(deep), Error);
}

TEST(Json, AccessorsEnforceKinds) {
  EXPECT_THROW(json_parse("1").as_string(), Error);
  EXPECT_THROW(json_parse("\"x\"").as_double(), Error);
  EXPECT_THROW(json_parse("[]").as_bool(), Error);
  EXPECT_THROW(json_parse("{}").items(), Error);
}

TEST(Json, Uint64AboveInt64MaxRoundTripsExactly) {
  // Batch seeds are full-range uint64 and reports carry them as JSON
  // integers — values above int64::max must survive a write/parse cycle
  // bit-exact, not through a double.
  const std::uint64_t big = 12345678901234567890ull;  // > int64::max
  JsonWriter w;
  w.begin_object();
  w.field("seed", big);
  w.end_object();
  const JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.find("seed")->as_uint64(), big);
  EXPECT_THROW(v.find("seed")->as_int64(), Error) << "does not fit int64";

  EXPECT_EQ(json_parse("18446744073709551615").as_uint64(), UINT64_MAX);
  EXPECT_EQ(JsonValue::make_uint(big).as_uint64(), big);
}

TEST(Json, Uint64AccessorEnforcesRangeAndExactness) {
  // int64-range integers come out of either accessor.
  EXPECT_EQ(json_parse("42").as_uint64(), 42u);
  EXPECT_EQ(json_parse("42").as_int64(), 42);
  // Negatives, fractions, and beyond-uint64 values are not uint64.
  EXPECT_THROW(json_parse("-1").as_uint64(), Error);
  EXPECT_THROW(json_parse("2.0").as_uint64(), Error);
  EXPECT_THROW(json_parse("18446744073709551616").as_uint64(), Error)
      << "uint64::max + 1 degrades to double; exact accessor must refuse";
}

}  // namespace
}  // namespace hlsprof
