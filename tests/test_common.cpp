// Unit tests for src/common: stats, strings, binned series, RNG, hashing,
// JSON emission.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/binned_series.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace hlsprof {
namespace {

// ---- stats ----------------------------------------------------------------

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanBasic) {
  const std::vector<double> xs{1, 4};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Stats, GeomeanSingle) {
  const std::vector<double> xs{7.5};
  EXPECT_NEAR(geomean(xs), 7.5, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geomean(xs), Error);
}

TEST(Stats, GeomeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(Stats, MaxMin) {
  const std::vector<double> xs{3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(max_of(xs), 7);
  EXPECT_DOUBLE_EQ(min_of(xs), -1);
}

TEST(Stats, MaxOfEmptyThrows) {
  EXPECT_THROW(max_of(std::vector<double>{}), Error);
  EXPECT_THROW(min_of(std::vector<double>{}), Error);
}

TEST(Stats, StddevConstantIsZero) {
  const std::vector<double> xs{5, 5, 5};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, StddevKnown) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(xs), 2.0, 1e-12);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{30, 10, 20};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 20);
}

TEST(Stats, PercentileRejectsBadP) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1), Error);
  EXPECT_THROW(percentile(xs, 101), Error);
}

TEST(Stats, PercentileEmptyThrows) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50), Error);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  rs.add(2);
  rs.add(4);
  rs.add(-1);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(rs.min(), -1);
  EXPECT_DOUBLE_EQ(rs.max(), 4);
  EXPECT_DOUBLE_EQ(rs.sum(), 5);
}

TEST(Stats, RunningStatsMinMaxNeedSamples) {
  RunningStats rs;
  EXPECT_THROW(rs.min(), Error);
  EXPECT_THROW(rs.max(), Error);
}

// ---- strings --------------------------------------------------------------

TEST(Strings, StrfFormats) {
  EXPECT_EQ(strf("a=%d b=%s", 3, "x"), "a=3 b=x");
}

TEST(Strings, StrfEmpty) { EXPECT_EQ(strf("%s", ""), ""); }

TEST(Strings, StrfLongOutput) {
  const std::string s = strf("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

TEST(Strings, JoinBasic) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a::b:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ':');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("#Paraver (x)", "#Paraver"));
  EXPECT_FALSE(starts_with("#Par", "#Paraver"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(853522308ULL), "853,522,308");
  EXPECT_EQ(with_commas(1234567890123ULL), "1,234,567,890,123");
}

// ---- BinnedSeries -----------------------------------------------------------

TEST(BinnedSeries, RejectsZeroWidth) {
  EXPECT_THROW(BinnedSeries(0), Error);
}

TEST(BinnedSeries, AddPlacesInCorrectBin) {
  BinnedSeries s(10);
  s.add(0, 1.0);
  s.add(9, 1.0);
  s.add(10, 5.0);
  EXPECT_DOUBLE_EQ(s.bin(0), 2.0);
  EXPECT_DOUBLE_EQ(s.bin(1), 5.0);
  EXPECT_EQ(s.num_bins(), 2u);
}

TEST(BinnedSeries, BinBeyondEndIsZero) {
  BinnedSeries s(10);
  s.add(5, 1.0);
  EXPECT_DOUBLE_EQ(s.bin(100), 0.0);
}

TEST(BinnedSeries, AddRangeSplitsProportionally) {
  BinnedSeries s(10);
  s.add_range(5, 25, 20.0);  // spans bins 0 (5 cyc), 1 (10 cyc), 2 (5 cyc)
  EXPECT_DOUBLE_EQ(s.bin(0), 5.0);
  EXPECT_DOUBLE_EQ(s.bin(1), 10.0);
  EXPECT_DOUBLE_EQ(s.bin(2), 5.0);
}

TEST(BinnedSeries, AddRangeWithinOneBin) {
  BinnedSeries s(100);
  s.add_range(10, 20, 7.0);
  EXPECT_DOUBLE_EQ(s.bin(0), 7.0);
  EXPECT_EQ(s.num_bins(), 1u);
}

TEST(BinnedSeries, AddRangeEmptyIsNoop) {
  BinnedSeries s(10);
  s.add_range(20, 20, 5.0);
  s.add_range(30, 20, 5.0);
  EXPECT_EQ(s.num_bins(), 0u);
}

TEST(BinnedSeries, TotalConservedByAddRange) {
  BinnedSeries s(7);
  s.add_range(3, 100, 42.0);
  EXPECT_NEAR(s.total(), 42.0, 1e-9);
}

TEST(BinnedSeries, RateDividesByWidth) {
  BinnedSeries s(10);
  s.add(0, 30.0);
  EXPECT_DOUBLE_EQ(s.rate(0), 3.0);
}

TEST(BinnedSeries, Peak) {
  BinnedSeries s(10);
  EXPECT_DOUBLE_EQ(s.peak(), 0.0);
  s.add(0, 3.0);
  s.add(15, 9.0);
  EXPECT_DOUBLE_EQ(s.peak(), 9.0);
}

// ---- RNG ------------------------------------------------------------------

TEST(Rng, Deterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, FloatInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.next_float(-2.0f, 3.0f);
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(Rng, NextBelowInBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

// ---- hash ------------------------------------------------------------------

TEST(Hash, MatchesKnownFnv1aVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, ChainedFieldsAreOrderSensitive) {
  const auto ab = Fnv1a64{}.u64(1).u64(2).digest();
  const auto ba = Fnv1a64{}.u64(2).u64(1).digest();
  EXPECT_NE(ab, ba);
  EXPECT_EQ(ab, Fnv1a64{}.u64(1).u64(2).digest());
}

TEST(Hash, IntegersHashAsFixedWidth) {
  // u64 hashing must differ from hashing the same value's decimal text,
  // and a boolean is just a 0/1 u64 — exercising the width contract.
  EXPECT_NE(Fnv1a64{}.u64(42).digest(), fnv1a64("42"));
  EXPECT_EQ(Fnv1a64{}.boolean(true).digest(), Fnv1a64{}.u64(1).digest());
}

TEST(Hash, DoubleHashesByBitPattern) {
  EXPECT_EQ(Fnv1a64{}.f64(1.5).digest(), Fnv1a64{}.f64(1.5).digest());
  EXPECT_NE(Fnv1a64{}.f64(1.5).digest(), Fnv1a64{}.f64(-1.5).digest());
}

TEST(Hash, HexDigestIsZeroPadded16Chars) {
  EXPECT_EQ(hex_digest(0), "0000000000000000");
  EXPECT_EQ(hex_digest(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(hex_digest(0xffffffffffffffffULL), "ffffffffffffffff");
}

// ---- json ------------------------------------------------------------------

TEST(Json, EscapesControlQuotesAndBackslash) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterEmitsNestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "batch");
  w.field("ok", true);
  w.field("cycles", std::int64_t(123));
  w.key("jobs").begin_array();
  w.begin_object().field("i", 0).end_object();
  w.value(2.5);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"batch\",\"ok\":true,\"cycles\":123,"
            "\"jobs\":[{\"i\":0},2.5,null]}");
}

TEST(Json, WriterRejectsIncompleteDocument) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.str(), Error);
}

TEST(Json, DoublesRoundTripExactly) {
  JsonWriter w;
  w.begin_array().value(0.1).value(1e300).value(-0.0).end_array();
  const std::string s = w.str();
  EXPECT_NE(s.find("0.1"), std::string::npos);
  EXPECT_NE(s.find("1e+300"), std::string::npos);
}

// ---- reader ----------------------------------------------------------------

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
  w.key("list").begin_array().value(true).null().end_array();
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
