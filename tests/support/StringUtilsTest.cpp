//===- tests/support/StringUtilsTest.cpp - String helper unit tests -------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace sbi;

TEST(FormatTest, BasicSubstitution) {
  EXPECT_EQ(format("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(format("%s!", "hello"), "hello!");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(FormatTest, EmptyAndLong) {
  EXPECT_EQ(format("%s", ""), "");
  std::string Long(5000, 'x');
  EXPECT_EQ(format("%s", Long.c_str()), Long);
}

TEST(SplitTest, Basic) {
  auto Pieces = splitString("a,b,c", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "c");
}

TEST(SplitTest, AdjacentSeparators) {
  auto Pieces = splitString("a,,b", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(SplitTest, NoSeparator) {
  auto Pieces = splitString("abc", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "abc");
}

TEST(SplitTest, EmptyInput) {
  auto Pieces = splitString("", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "");
}

TEST(SplitTest, LeadingAndTrailing) {
  auto Pieces = splitString(",x,", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "");
  EXPECT_EQ(Pieces[1], "x");
  EXPECT_EQ(Pieces[2], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> Pieces = {"one", "two", "three"};
  EXPECT_EQ(joinStrings(Pieces, ","), "one,two,three");
  EXPECT_EQ(splitString(joinStrings(Pieces, ";"), ';'), Pieces);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"solo"}, ","), "solo");
}

TEST(PadTest, PadRight) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padRight("abcdef", 3), "abc"); // Truncates.
  EXPECT_EQ(padRight("", 2), "  ");
}

TEST(PadTest, PadLeft) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef"); // Never truncates.
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(startsWith("__lib_walk", "__lib_"));
  EXPECT_FALSE(startsWith("walk", "__lib_"));
  EXPECT_TRUE(startsWith("anything", ""));
  EXPECT_FALSE(startsWith("", "x"));
}

TEST(ParseUnsignedTest, AcceptsPlainDecimal) {
  uint64_t V = 1;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V)); // UINT64_MAX.
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseUnsigned("007", V)); // Leading zeros are still decimal.
  EXPECT_EQ(V, 7u);
}

TEST(ParseUnsignedTest, RejectsPartialConsumptionAndSigns) {
  // strtoull accepted all of these (stopping at the first bad character,
  // or wrapping negatives), which let `--runs=100x` silently become 100.
  uint64_t V = 99;
  EXPECT_FALSE(parseUnsigned("", V));
  EXPECT_FALSE(parseUnsigned("abc", V));
  EXPECT_FALSE(parseUnsigned("123abc", V));
  EXPECT_FALSE(parseUnsigned("12 ", V));
  EXPECT_FALSE(parseUnsigned(" 12", V));
  EXPECT_FALSE(parseUnsigned("+1", V));
  EXPECT_FALSE(parseUnsigned("-1", V));
  EXPECT_FALSE(parseUnsigned("0x10", V));
  EXPECT_FALSE(parseUnsigned("1.5", V));
  EXPECT_EQ(V, 99u) << "failed parse must not clobber the output";
}

TEST(ParseRateTest, AcceptsRatesInTheUnitInterval) {
  double V = 0.0;
  EXPECT_TRUE(parseRate("0.5", V));
  EXPECT_EQ(V, 0.5);
  EXPECT_TRUE(parseRate("1", V));
  EXPECT_EQ(V, 1.0);
  EXPECT_TRUE(parseRate("0.01", V));
  EXPECT_EQ(V, 0.01);
  EXPECT_TRUE(parseRate("1e-3", V));
  EXPECT_EQ(V, 0.001);
}

TEST(ParseRateTest, RejectsPartialConsumptionAndRatesOutsideZeroToOne) {
  // strtod accepted every one of these, running `--sampling=uniform:abc`
  // as a rate-0 campaign and `uniform:5` as a full-rate one.
  double V = 0.25;
  for (const char *Bad :
       {"", "abc", "0.5x", " 0.5", "0.5 ", "+0.5", "0", "-0", "-1", "5",
        "1.0000001", "nan", "NaN", "inf", "-inf", "infinity", "0x1p-1"})
    EXPECT_FALSE(parseRate(Bad, V)) << '"' << Bad << '"';
  EXPECT_EQ(V, 0.25) << "failed parse must not clobber the output";
}

TEST(ParseUnsignedTest, RejectsOverflow) {
  uint64_t V = 99;
  EXPECT_FALSE(parseUnsigned("18446744073709551616", V)); // UINT64_MAX + 1.
  EXPECT_FALSE(parseUnsigned("99999999999999999999", V));
  EXPECT_FALSE(parseUnsigned("340282366920938463463374607431768211456", V));
  EXPECT_EQ(V, 99u);
}
