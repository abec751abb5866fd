#include "common/strings.h"

#include <gtest/gtest.h>

namespace seagull {
namespace {

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitEmptyString) {
  auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" a b "), "a b");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("telemetry/region", "telemetry/"));
  EXPECT_FALSE(StartsWith("tel", "telemetry"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" 42 "), 42.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("--3").ok());
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(*ParseInt64("12345"), 12345);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("  99 "), 99);
}

TEST(StringsTest, ParseInt64RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("3.5").ok());
  EXPECT_FALSE(ParseInt64("12a").ok());
}

TEST(StringsTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
  // Long output is not truncated.
  std::string long_arg(500, 'y');
  EXPECT_EQ(StringPrintf("%s", long_arg.c_str()).size(), 500u);
}

}  // namespace
}  // namespace seagull
