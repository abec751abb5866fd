#include "common/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>

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

Result<double> ParseDouble(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return Status::Invalid("empty numeric field");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::Invalid("malformed double: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return Status::Invalid("empty integer field");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::Invalid("malformed integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
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
