#include "common/strings.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace seagull {

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  const char* ws = " \t\r\n\f\v";
  size_t b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  size_t e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

/// Longest `"%.4f"` text of a double: sign, the 309 integer digits of
/// DBL_MAX, point and four decimals.
constexpr size_t kFixed4MaxChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 4;

/// Prints `v` as `"%.4f"` into `buf`; returns the end of the text.
char* ToFixed4(double v, char (&buf)[kFixed4MaxChars]) {
  return std::to_chars(buf, buf + kFixed4MaxChars, v,
                       std::chars_format::fixed, 4)
      .ptr;
}

/// `std::from_chars` over all of `text`; false unless every byte parsed.
template <typename T>
bool FromCharsExact(std::string_view text, T* v) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *v);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Result<double> ParseDouble(std::string_view s) {
  const std::string_view text = TrimWhitespace(s);
  if (text.empty()) return Status::Invalid("empty numeric field");
  double v = 0.0;
  if (!FromCharsExact(text, &v) || !std::isfinite(v)) {
    return Status::Invalid("malformed double: '" + std::string(text) + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view s) {
  const std::string_view text = TrimWhitespace(s);
  if (text.empty()) return Status::Invalid("empty integer field");
  int64_t v = 0;
  if (!FromCharsExact(text, &v)) {
    return Status::Invalid("malformed integer: '" + std::string(text) + "'");
  }
  return v;
}

void AppendFixed4(std::string* out, double v) {
  char buf[kFixed4MaxChars];
  out->append(buf, ToFixed4(v, buf));
}

double QuantizeFixed4(double v) {
  char buf[kFixed4MaxChars];
  double q = 0.0;
  // Unlike ParseDouble, this takes back the `inf`/`nan` text too, so a
  // non-finite value maps to what strtod makes of it.
  std::from_chars(buf, ToFixed4(v, buf), q);
  return q;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace seagull
