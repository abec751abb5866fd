/// \file strings.h
/// \brief Small string helpers shared across modules, and the one number
/// codec of the telemetry data plane.

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

/// Parses finite decimal text (surrounding whitespace allowed) with
/// `std::from_chars`. A leading `+`, hex, `inf`, `nan`, trailing
/// garbage, overflow and underflow to zero are `Invalid`; subnormals
/// parse.
Result<double> ParseDouble(std::string_view s);

/// Parses a base-10 signed 64-bit integer (surrounding whitespace
/// allowed) with `std::from_chars`. A leading `+`, trailing garbage and
/// overflow are `Invalid`.
Result<int64_t> ParseInt64(std::string_view s);

/// Appends `v` exactly as `printf("%.4f", v)` prints it. Telemetry
/// values live on this 4-decimal grid: the CSV writer prints them with
/// it and SGB1 stores `QuantizeFixed4` of them.
void AppendFixed4(std::string* out, double v);

/// What `v` becomes when printed by `AppendFixed4` and parsed back
/// (bit for bit what `strtod` makes of the `"%.4f"` text). Idempotent;
/// does not allocate.
double QuantizeFixed4(double v);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace seagull
