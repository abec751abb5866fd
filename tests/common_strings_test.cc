#include "common/strings.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

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

// Parsing takes finite decimal text only: everything strtod accepted
// beyond that (a leading '+', hex, inf, nan) is Invalid, and so are
// overflow and underflow to zero. Subnormals parse.
TEST(StringsTest, ParseDoubleTakesFiniteDecimalTextOnly) {
  for (const char* text :
       {"+1", "0x1p3", "inf", "-inf", "nan", "1e400", "2e-324", ""}) {
    EXPECT_TRUE(ParseDouble(text).status().IsInvalid()) << text;
  }
  EXPECT_EQ(*ParseDouble(" 42 "), 42.0);
  const auto subnormal = ParseDouble("1e-310");
  ASSERT_TRUE(subnormal.ok());
  EXPECT_EQ(*subnormal, 1e-310);
  EXPECT_EQ(std::fpclassify(*subnormal), FP_SUBNORMAL);
}

TEST(StringsTest, ParseInt64RejectsSignAndOverflow) {
  EXPECT_TRUE(ParseInt64("+5").status().IsInvalid());
  EXPECT_TRUE(ParseInt64("9223372036854775808").status().IsInvalid());
  EXPECT_EQ(*ParseInt64("9223372036854775807"),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(*ParseInt64("-9223372036854775808"),
            std::numeric_limits<int64_t>::min());
}

/// Checks `AppendFixed4` against the bytes `printf("%.4f")` writes and
/// `QuantizeFixed4` against `strtod` of them, bit for bit. Returns the
/// number of mismatches, reporting the first few.
int64_t CountFixed4Mismatches(const std::vector<double>& values) {
  int64_t mismatches = 0;
  std::vector<char> oracle(400);
  std::string text;
  for (const double v : values) {
    const int n = std::snprintf(oracle.data(), oracle.size(), "%.4f", v);
    const std::string expected(oracle.data(), static_cast<size_t>(n));
    const double parsed = std::strtod(expected.c_str(), nullptr);
    text.clear();
    AppendFixed4(&text, v);
    const double quantized = QuantizeFixed4(v);
    if (text != expected || std::bit_cast<uint64_t>(quantized) !=
                                std::bit_cast<uint64_t>(parsed)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "value bits " << std::hex
                      << std::bit_cast<uint64_t>(v) << ": printf '"
                      << expected << "' codec '" << text << "'";
      }
    }
  }
  return mismatches;
}

TEST(StringsTest, Fixed4MatchesPrintfAndStrtodOnEdges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0, -0.0, -0.00001, -0.00004999, -0.00005, 0.00005, 1e-310,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), nan, -nan, kInf, -kInf, 1e300,
      -1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 9007199254740993.0,
      1e15 + 0.5, 99.99995, 100.0, 12.34565};
  EXPECT_EQ(CountFixed4Mismatches(edges), 0);
}

TEST(StringsTest, Fixed4MatchesPrintfAndStrtodOnRandomMagnitudes) {
  Rng rng(20);
  std::vector<double> values;
  values.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    const double mantissa = rng.Uniform(1.0, 10.0);
    const double scale = std::pow(10.0, rng.UniformInt(-12, 22));
    values.push_back((rng.Next() & 1) ? -mantissa * scale
                                      : mantissa * scale);
  }
  EXPECT_EQ(CountFixed4Mismatches(values), 0);
}

// Every rounding tie of the grid in [0, 100): k·1e-4 + 0.5e-4 and the
// doubles on either side of it.
TEST(StringsTest, Fixed4MatchesPrintfAndStrtodAroundEveryTie) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  values.reserve(3'000'000);
  for (int64_t k = 0; k < 1'000'000; ++k) {
    const double tie = (static_cast<double>(k) + 0.5) / 1e4;
    values.push_back(std::nextafter(tie, -kInf));
    values.push_back(tie);
    values.push_back(std::nextafter(tie, kInf));
  }
  EXPECT_EQ(CountFixed4Mismatches(values), 0);
}

TEST(StringsTest, QuantizeFixed4IsIdempotent) {
  Rng rng(21);
  for (int i = 0; i < 10000; ++i) {
    const double q = QuantizeFixed4(rng.Uniform(-1000.0, 1000.0));
    EXPECT_EQ(QuantizeFixed4(q), q);
  }
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
