/// \file strings.h
/// \brief Small string helpers shared across modules.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace seagull {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a double; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace seagull
