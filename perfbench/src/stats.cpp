#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = quantile(v, 0.5);
  static const double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 80, 75, 50};
  s.tail_pct = 50;
  for (const double pct : kLadder) {
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t beyond =
        v.size() - 1 - static_cast<std::size_t>(std::floor(pos));
    if (beyond >= 10) {
      s.tail_pct = pct;
      break;
    }
  }
  s.tail = quantile(v, s.tail_pct / 100.0);
  const double pos = s.tail_pct / 100.0 * static_cast<double>(v.size() - 1);
  s.beyond = v.size() - 1 - static_cast<std::size_t>(std::floor(pos));
  return s;
}

std::string describe(const Summary& s, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50=%.3f %s  p%g=%.3f %s  (n=%zu, %zu beyond)",
                s.p50, unit, s.tail_pct, s.tail, unit, s.n, s.beyond);
  return buf;
}

void Accounting::record(const std::string& klass, double latency_ms,
                        bool ok) {
  ClassStats& c = classes_[klass];
  ++c.attempted;
  if (!ok) ++c.failed;
  c.latency_ms.push_back(latency_ms);
}

const ClassStats& Accounting::get(const std::string& klass) const {
  static const ClassStats kEmpty;
  const auto it = classes_.find(klass);
  return it == classes_.end() ? kEmpty : it->second;
}

long long Accounting::attempted() const {
  long long n = 0;
  for (const auto& [name, c] : classes_) n += c.attempted;
  return n;
}

long long Accounting::failed() const {
  long long n = 0;
  for (const auto& [name, c] : classes_) n += c.failed;
  return n;
}

std::vector<double> Accounting::all_latencies() const {
  std::vector<double> all;
  for (const auto& [name, c] : classes_) {
    all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
  return all;
}

}  // namespace perfbench
