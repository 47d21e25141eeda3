#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace plansep {

namespace {

// from_chars over the whole of s: the number must use every character and
// fit T. A leading '+' is allowed for signed types, as strtol allows it.
template <typename T>
std::optional<T> parse_whole(std::string_view s, bool allow_plus) {
  if (allow_plus && s.size() > 1 && s[0] == '+' && s[1] != '-') {
    s.remove_prefix(1);
  }
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::optional<long long> parse_int(std::string_view s) {
  return parse_whole<long long>(s, true);
}

std::optional<long long> parse_int_in(std::string_view s, long long lo,
                                      long long hi) {
  const std::optional<long long> v = parse_int(s);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_whole<std::uint64_t>(s, false);
}

std::optional<double> parse_double(std::string_view s) {
  const std::optional<double> v = parse_whole<double>(s, true);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

}  // namespace plansep
