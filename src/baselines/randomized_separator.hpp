#pragma once

// Randomized separator baseline — a stand-in for the randomized face-weight
// estimation of Ghaffari–Parter (DISC 2017), DESIGN.md substitution 3.
//
// The deterministic engine evaluates Definition 2 exactly. GP instead
// *approximate* face weights with randomized sketches. This baseline keeps
// our search skeleton but replaces every exact weight by a sampling
// estimate: each node joins a public sample with probability p, and the
// weight of a face is estimated as (#sampled members of F̃_e)/p via the
// Remark 1 membership test. Each attempt proposes one candidate per
// unresolved part, which is verified (balance check, Õ(D)); failures
// retry with fresh randomness and the attempt count is reported. Parts
// still unresolved after the last attempt take the deterministic
// engine's separator. Both kinds are committed through
// separator::SeparatorResult::settle and priced with
// shortcuts::aggregations, as the deterministic engine's are. With
// p ≈ c·log(n)/ (ε²·n)·… the estimates concentrate and one attempt
// almost always suffices — the experiment in bench_det_vs_random
// quantifies the tradeoff.

#include "separator/engine.hpp"
#include "util/rng.hpp"

namespace plansep::baselines {

struct RandomizedSeparatorResult {
  separator::SeparatorResult result;
  int attempts = 0;                 // sampling attempts used (>=1)
  int parts_needing_retry = 0;      // parts whose first candidate failed
  int deterministic_fallbacks = 0;  // parts resolved by the exact engine
};

class RandomizedSeparatorEngine {
 public:
  /// sample_rate: expected fraction of nodes in the sample (the paper's
  /// ε-accuracy knob). max_attempts: sampling retries before falling back
  /// to the deterministic engine for the failing part.
  RandomizedSeparatorEngine(shortcuts::PartwiseEngine& engine,
                            double sample_rate, int max_attempts = 8)
      : engine_(&engine),
        sample_rate_(sample_rate),
        max_attempts_(max_attempts) {}

  RandomizedSeparatorResult compute(const sub::PartSet& ps, Rng& rng);

 private:
  shortcuts::PartwiseEngine* engine_;
  double sample_rate_;
  int max_attempts_;
};

}  // namespace plansep::baselines
