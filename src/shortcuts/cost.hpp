#pragma once

// Round accounting (see DESIGN.md, "Round accounting").
//
// Every distributed operation reports two numbers:
//   * measured — rounds actually spent by our simulation (message-level
//     for the part-wise aggregation engine, analytic for congestion-free
//     intra-part trees);
//   * charged  — the cost the paper's lemmas assign, in rounds, taking the
//     deterministic low-congestion shortcut framework of Haeupler et al.
//     as a black box: each part-wise aggregation / broadcast / black-boxed
//     Proposition-5 call costs O(D) (polylogs suppressed), each local
//     neighbor exchange costs O(1).
// Benchmarks report both, so the Õ(D) claims can be verified under the
// paper's accounting while exposing the substitute's real behavior.

#include "obs/metrics.hpp"

namespace plansep::shortcuts {

struct RoundCost {
  long long measured = 0;
  long long charged = 0;
  long long pa_calls = 0;       // part-wise aggregation invocations
  long long local_rounds = 0;   // single-round neighbor exchanges

  RoundCost& operator+=(const RoundCost& o) {
    measured += o.measured;
    charged += o.charged;
    pa_calls += o.pa_calls;
    local_rounds += o.local_rounds;
    return *this;
  }
};

/// Cost of one O(1)-round local exchange. Charge sites like this one also
/// drive the observability round clock (obs/metrics.hpp): the measured
/// ledger and the obs timeline advance together, so phase spans get
/// durations under the same accounting the benches report.
inline RoundCost local_exchange(int rounds = 1) {
  RoundCost c;
  c.measured = rounds;
  c.charged = rounds;
  c.local_rounds = rounds;
  obs::advance_rounds(rounds);
  return c;
}

/// Cost of k part-wise aggregations over one part partition, priced at
/// `unit`, the cost of one probe aggregation over it: every aggregation
/// over the same partition costs the same. Advances the obs round clock
/// like local_exchange (the probe advanced it for itself).
inline RoundCost aggregations(const RoundCost& unit, long long k) {
  RoundCost c = unit;
  c.measured *= k;
  c.charged *= k;
  c.pa_calls = k;
  obs::advance_rounds(c.measured);
  return c;
}

}  // namespace plansep::shortcuts
