#include "faults/recovery.hpp"

#include <exception>

#include "obs/metrics.hpp"

namespace plansep::faults {

RetryStats retry_stage(const std::string& stage, shortcuts::RoundCost& cost,
                       const std::function<std::string()>& attempt) {
  obs::Span span(("faults/recover_" + stage).c_str());
  RetryStats stats;
  for (int k = 1; k <= kMaxAttempts; ++k) {
    stats.attempts = k;
    try {
      stats.failure = attempt();
      if (stats.failure.empty()) {
        stats.ok = true;
        break;
      }
    } catch (const std::exception& e) {
      stats.failure = stage + " attempt threw: " + e.what();
    }
    if (k < kMaxAttempts) {
      // Backoff models the adversary-mandated cool-down before a re-run.
      // It is real protocol time, so it lands in both ledger columns and
      // on the obs round clock.
      const long long backoff = kBackoffBaseRounds << (k - 1);
      stats.backoff_rounds += backoff;
      cost.measured += backoff;
      cost.charged += backoff;
      obs::advance_rounds(backoff);
      obs::add_counter("faults/retries");
    }
  }
  span.note("attempts", stats.attempts);
  span.note("ok", stats.ok ? 1 : 0);
  span.note("backoff_rounds", stats.backoff_rounds);
  return stats;
}

}  // namespace plansep::faults
