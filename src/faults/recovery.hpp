#pragma once

/// \file
/// Recovery: the one retry/backoff loop every fault-job stage runs its
/// attempts through.

// The paper's protocols assume the failure-free CONGEST model; under an
// injected fault plan a stage can fail in exactly two observable ways —
// it throws (a protocol invariant broke mid-run, e.g. the BFS wave left
// the graph "disconnected") or it completes with output that violates the
// stage's validator (dfs/validate.hpp, separator/validate.hpp). The loop
// here detects both, charges an exponential backoff to the round ledger
// (both the measured and charged columns, mirrored into the obs clock),
// and re-runs the stage's attempt from scratch. Because FaultController
// reseeds its plan per run epoch, a retry faces fresh faults; a plan the
// algorithm can survive is eventually survived, and a plan it cannot is
// reported with the last attempt's diagnosis — never silently. The
// attempts themselves are the job stages' (taskgraph::recover_separator,
// recover_dfs, recover_baseline).

#include <functional>
#include <string>

#include "shortcuts/cost.hpp"

namespace plansep::faults {

/// Attempts a stage makes before giving up.
inline constexpr int kMaxAttempts = 4;
/// Backoff charged after failed attempt k (1-based) is
/// `kBackoffBaseRounds << (k-1)` rounds, on both ledgers.
inline constexpr long long kBackoffBaseRounds = 32;

/// Outcome of a retried stage: how hard it had to try, and why it gave up
/// when it did.
struct RetryStats {
  /// The final attempt's output passed the stage validator.
  bool ok = false;
  /// Attempts consumed (1 = clean first try).
  int attempts = 0;
  /// Total backoff rounds charged across failed attempts.
  long long backoff_rounds = 0;
  /// Diagnosis of the last failed attempt ("" when ok): the validator's
  /// summary or the thrown exception's message.
  std::string failure;
};

/// The one retry loop behind every fault-job stage: runs `attempt` until
/// it returns "" (its output passed the stage's validator; otherwise the
/// return is the diagnosis, or "<stage> attempt threw: <what>") or
/// kMaxAttempts run out, charging each retry's backoff to `cost` and the
/// obs clock, inside one "faults/recover_<stage>" span.
RetryStats retry_stage(const std::string& stage, shortcuts::RoundCost& cost,
                       const std::function<std::string()>& attempt);

}  // namespace plansep::faults
