#pragma once

/// \file
/// Chaos harness: the pipeline under seeded fault plans, checked for the
/// survive-or-fail-loudly property.

// Chaos harness: runs the separator/DFS pipeline under a seeded fault
// plan and checks the *survive-or-fail-loudly* property:
//
//   * if a fault stage (taskgraph::recover_separator, recover_dfs — the
//     ones fault jobs call) reports success, the bytes it ships must
//     decode and pass an independent centralized cross-check (a silently
//     corrupted "success" is the one unacceptable outcome);
//   * if it reports failure, it must carry a non-empty diagnosis;
//   * either way the captured CONGEST trace must respect the per-edge
//     per-round bandwidth discipline (faults act on *accepted* sends, so
//     the discipline is fault-invariant).
//
// The fault plan is a pure function of the CaseSpec: the spec's fault
// family picks the intensity knobs (fault_spec_for) and the case seed
// seeds the plan, so a `--faults=` replay line reproduces the exact
// faulty execution.

#include "faults/controller.hpp"
#include "testing/proptest.hpp"

namespace plansep::testing {

/// The fixed intensity knobs a fault family maps to. kNone maps to the
/// empty spec (a controller that attaches but never injects); kChaos
/// enables every kind at half its single-family intensity.
faults::FaultSpec fault_spec_for(FaultFamily family);

/// Knobs of one chaos run.
struct ChaosOptions {
  /// Run the DFS fault stage (Theorem 2) on top of the separator one.
  bool run_dfs = true;
  /// Capture the CONGEST trace and check the bandwidth discipline on it.
  bool capture_trace = true;
};

/// What a chaos run observed.
struct ChaosStats {
  bool separator_survived = false;  ///< separator recovery reported ok
  bool dfs_survived = false;        ///< DFS recovery reported ok
  int separator_attempts = 0;       ///< separator attempts consumed
  int dfs_attempts = 0;             ///< DFS attempts consumed
  long long injected = 0;  ///< total injections the controller performed
  long long trace_messages = 0;     ///< captured messages (if capturing)
};

/// Runs the pipeline under the instance's fault family, folding every
/// survive-or-fail-loudly violation into `rep`. Disconnected instances
/// (possible under mutations) are skipped — the pipeline's precondition
/// does not hold, faults or not.
ChaosStats run_pipeline_chaos(const Instance& inst, const ChaosOptions& opt,
                              InvariantReport& rep);

}  // namespace plansep::testing
