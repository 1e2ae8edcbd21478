// Unit tests for src/common: stats, strings, RNG, hashing, JSON emission.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace hlsprof {
namespace {

// ---- error ----------------------------------------------------------------

TEST(Error, CheckFailureMessageIsPinned) {
  // Tests and users match on this text; the failure path's layout must
  // not change it.
  const std::string where = std::string(" (") + __FILE__ + ":";
  const int line = __LINE__ + 2;
  try {
    HLSPROF_CHECK(1 + 1 == 3, "sum is off");
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "check failed: 1 + 1 == 3 \xe2\x80\x94 sum is off" + where +
                  std::to_string(line) + ")");
  }
  const std::string detail = strf("got %d", 7);
  try {
    HLSPROF_CHECK(detail.empty(), detail + "!");
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "check failed: detail.empty() \xe2\x80\x94 got 7!" + where +
                  std::to_string(line + 9) + ")");
  }
}

// ---- stats ----------------------------------------------------------------

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
}

TEST(Stats, MaxOfEmptyThrows) {
  EXPECT_THROW(max_of(std::vector<double>{}), Error);
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
  w.value(false);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"batch\",\"ok\":true,\"cycles\":123,"
            "\"jobs\":[{\"i\":0},2.5,false]}");
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

}  // namespace
}  // namespace hlsprof
