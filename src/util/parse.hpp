#pragma once

// Strict number parsing for text that crosses a trust boundary: job-file
// lines and CLI flag values. Each parser accepts only a string that is one
// whole decimal number in range for its type — no trailing junk, no
// saturation on overflow, no sign on an unsigned value — and returns
// nullopt otherwise, leaving the error message to the caller.

#include <cstdint>
#include <optional>
#include <string_view>

namespace plansep {

/// A decimal integer in range for long long, optionally signed.
std::optional<long long> parse_int(std::string_view s);

/// parse_int restricted to [lo, hi]: the range check CLI flags share.
std::optional<long long> parse_int_in(std::string_view s, long long lo,
                                      long long hi);

/// An unsigned decimal integer in range for uint64; a sign is rejected.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// A finite decimal number, optionally signed (no inf, nan or hex).
std::optional<double> parse_double(std::string_view s);

}  // namespace plansep
