#pragma once

/// \file
/// Recovery drivers: one retry/backoff loop, and the wrappers that run the
/// separator and DFS pipelines through it to a validated result under an
/// active fault plan.

// The paper's protocols assume the failure-free CONGEST model; under an
// injected fault plan a stage can fail in exactly two observable ways —
// it throws (a protocol invariant broke mid-run, e.g. the BFS wave left
// the graph "disconnected") or it completes with output that violates the
// stage's validator (dfs/validate.hpp, separator/validate.hpp). The
// drivers here detect both, charge an exponential backoff to the round
// ledger (both the measured and charged columns, mirrored into the obs
// clock), and re-run the stage from scratch. Because FaultController
// reseeds its plan per run epoch, a retry faces fresh faults; a plan the
// algorithm can survive is eventually survived, and a plan it cannot is
// reported with the last attempt's diagnosis — never silently.

#include <functional>
#include <optional>
#include <string>

#include "dfs/builder.hpp"
#include "separator/engine.hpp"

namespace plansep::faults {

/// Attempts a recovery driver makes before giving up.
inline constexpr int kMaxAttempts = 4;
/// Backoff charged after failed attempt k (1-based) is
/// `kBackoffBaseRounds << (k-1)` rounds, on both ledgers.
inline constexpr long long kBackoffBaseRounds = 32;

/// Outcome of a recovery driver: how hard it had to try, and why it gave
/// up when it did.
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

/// The one retry loop behind every recovery driver: runs `attempt` until
/// it returns "" (its output passed the stage's validator; otherwise the
/// return is the diagnosis, or "<stage> attempt threw: <what>") or
/// kMaxAttempts run out, charging each retry's backoff to `cost` and the
/// obs clock, inside one "faults/recover_<stage>" span.
RetryStats retry_stage(const std::string& stage, shortcuts::RoundCost& cost,
                       const std::function<std::string()>& attempt);

/// Result of build_dfs_tree_with_recovery. `build` is engaged iff
/// recovery.ok.
struct RecoveredDfs {
  std::optional<dfs::DfsBuildResult> build;  ///< the validated DFS build
  RetryStats recovery;                       ///< how recovery went
  /// Everything: successful attempt + failed attempts' charges + backoff.
  shortcuts::RoundCost cost;
};

/// Builds a DFS tree of connected g rooted at `root` (Theorem 2),
/// re-running the whole phase pipeline — fresh PartwiseEngine included,
/// since its BFS tree is itself fault-exposed — until dfs::check_dfs_tree
/// passes or kMaxAttempts are exhausted.
RecoveredDfs build_dfs_tree_with_recovery(const planar::EmbeddedGraph& g,
                                          planar::NodeId root);

/// Result of compute_separator_with_recovery. `result` is engaged iff
/// recovery.ok.
struct RecoveredSeparator {
  std::optional<separator::SeparatorResult> result;  ///< validated separator
  RetryStats recovery;        ///< how recovery went
  /// Attempts + backoff, both ledgers; each attempt charges setup, part-set
  /// build and engine, like core::compute_cycle_separator.
  shortcuts::RoundCost cost;
};

/// Computes a cycle separator of connected g as one part (Theorem 1),
/// re-running setup + part build + engine until separator::check_separator
/// passes or kMaxAttempts are exhausted.
RecoveredSeparator compute_separator_with_recovery(
    const planar::EmbeddedGraph& g, planar::NodeId root);

}  // namespace plansep::faults
