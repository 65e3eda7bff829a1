// The strict number parser (util/parse.hpp) behind every scenario
// parameter, driver flag, sweep range, fault spec and serve-tool flag:
// the whole string or nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/parse.hpp"

namespace megflood {
namespace {

TEST(ParseWholeU64, AcceptsDecimalDigitsUpTo64Bits) {
  EXPECT_EQ(parse_whole_u64("0"), 0u);
  EXPECT_EQ(parse_whole_u64("42"), 42u);
  EXPECT_EQ(parse_whole_u64("007"), 7u);
  EXPECT_EQ(parse_whole_u64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseWholeU64, RejectsAnythingElse) {
  // "-1" is the thread-count hazard: a wrapping parser reads it as
  // 2^64 - 1 workers or connections.
  for (const std::string text :
       {"-1", "-0", "+1", " 1", "1 ", "1x", "0x10", "1.0", "1e3", "",
        "18446744073709551616", "99999999999999999999", "nan", "inf"}) {
    EXPECT_FALSE(parse_whole_u64(text).has_value()) << "'" << text << "'";
  }
}

TEST(ParseFiniteDouble, AcceptsFiniteDecimals) {
  EXPECT_EQ(parse_finite_double("0.9"), 0.9);
  EXPECT_EQ(parse_finite_double("-2.5"), -2.5);
  EXPECT_EQ(parse_finite_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_finite_double("1E+2"), 100.0);
  EXPECT_EQ(parse_finite_double(".5"), 0.5);
  EXPECT_EQ(parse_finite_double("3"), 3.0);
}

TEST(ParseFiniteDouble, RejectsNonFiniteAndPartialInput) {
  // "nan" would turn every later range check off: NaN compares false.
  for (const std::string text :
       {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e400", "0.9x",
        "1x", " 1", "1 ", "", "+1", "0x1p3", "1,5", "--1"}) {
    EXPECT_FALSE(parse_finite_double(text).has_value())
        << "'" << text << "'";
  }
}

}  // namespace
}  // namespace megflood
