#pragma once

// Strict whole-string number parsing for every text a user or a file hands
// the program: scenario parameters, driver and tool flags, sweep ranges
// and fault-injection specs.  Each caller words its own error.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <system_error>

namespace megflood {

// Decimal digits only, the whole string, at most 2^64 - 1: no sign, no
// space, no trailing bytes.
inline std::optional<std::uint64_t> parse_whole_u64(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

// A whole-string finite double (strtod's decimal syntax, no leading space
// or '+', no trailing bytes).  NaN, infinities and out-of-range values
// are rejected, so a range check downstream never compares against NaN.
inline std::optional<double> parse_finite_double(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace megflood
