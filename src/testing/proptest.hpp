#pragma once

/// \file
/// Property-based testing harness: seeded case generation, the checked
/// pipeline runner, greedy shrinking, and one-line replay commands.

// Property-based testing harness with seeded replay.
//
// Turns the paper's theorems into machine-checked properties over
// thousands of random planar instances:
//
//   * seeded generation across every family of planar/generators.hpp,
//     plus adversarial mutations (pendant trees, subdivided edges,
//     degenerate weight vectors) that preserve planarity;
//   * a pipeline runner (embedding → triangulation → separator engine →
//     hierarchy → DFS builder) that folds the centralized oracles of
//     oracles.hpp over every stage, with opt-in CONGEST trace capture;
//   * deterministic failure handling: a failing case is greedily shrunk
//     (smaller n, mutation dropped) and reported as a one-line replay
//     command `--seed=<N> --family=<F> --n=<K> [--mutation=<M>]` that
//     parse_replay/run_one reproduce bit-for-bit.
//
// Everything is a pure function of the CaseSpec — no global RNG, no time,
// no test-order dependence — so a replay command from a CI log reproduces
// the exact instance locally.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "planar/generators.hpp"
#include "testing/oracles.hpp"

namespace plansep::testing {

// ---------------------------------------------------------------- cases --

/// Planarity-preserving adversarial mutation applied after generation.
enum class Mutation {
  kNone,              ///< no mutation
  kPendantTrees,      ///< hang random small trees off random nodes
  kSubdividedEdges,   ///< replace random edges u–v by u–w–v
  kDegenerateWeights, ///< skewed weights (one-heavy / sparse 0-1 / huge)
  kCombined,          ///< all of the above
};

/// Stable name used in replay commands (e.g. "pendant_trees").
const char* mutation_name(Mutation m);
/// Inverse of mutation_name; nullopt on unknown names.
std::optional<Mutation> mutation_from_name(std::string_view name);

/// Fault plan attached to a case (see faults/plan.hpp and
/// docs/FAULT_MODEL.md). Each family maps to a fixed FaultSpec via
/// testing::fault_spec_for (testing/chaos.hpp); the plan's seed is the
/// case seed, so the whole faulty execution replays from the CaseSpec.
enum class FaultFamily {
  kNone,        ///< failure-free CONGEST (the classic model)
  kDrops,       ///< iid message loss
  kDuplicates,  ///< iid message duplication
  kReorder,     ///< adversarial inbox permutations
  kCrashes,     ///< windowed crash/restart
  kStalls,      ///< one-round delivery delays (bandwidth perturbation)
  kOutages,     ///< whole-edge blackouts per scheduling window
  kChaos,       ///< all of the above at once
};

/// Stable name used in replay commands (e.g. "drops", "chaos").
const char* fault_family_name(FaultFamily f);
/// Inverse of fault_family_name; nullopt on unknown names.
std::optional<FaultFamily> fault_family_from_name(std::string_view name);

/// Everything needed to reproduce one test case bit-for-bit.
struct CaseSpec {
  planar::Family family = planar::Family::kGrid;  ///< generator family
  int n = 0;                                      ///< target node count
  std::uint64_t seed = 0;                         ///< master seed
  Mutation mutation = Mutation::kNone;            ///< adversarial mutation
  FaultFamily faults = FaultFamily::kNone;        ///< attached fault plan

  /// The one-line replay command:
  /// "--seed=7 --family=grid --n=64 --mutation=pendant_trees --faults=drops".
  std::string replay() const;
};

/// Parses a replay command (tokens in any order; --mutation and --faults
/// optional).
std::optional<CaseSpec> parse_replay(std::string_view line);

/// Shell-style prefix naming every execution-affecting PLANSEP_* env var
/// active in this process — PLANSEP_THREADS, PLANSEP_PAR_THRESHOLD,
/// PLANSEP_FUSION — e.g. "PLANSEP_THREADS=4 PLANSEP_FUSION=off " (note
/// the trailing space), or "" when none is set. Printed ahead of every
/// replay command so a failure observed under a parallel or fused
/// configuration replays under exactly that configuration, not the
/// defaults.
std::string replay_env_prefix();

/// A materialized case: the spec plus the generated graph and weights.
struct Instance {
  CaseSpec spec;             ///< the spec this instance was built from
  planar::GeneratedGraph gg; ///< generated (and mutated) planar graph
  /// Per-node weights for the weighted-separator property; all-ones unless
  /// the mutation installs a degenerate vector.
  std::vector<long long> weight;
};

/// Deterministically builds the instance for a spec (generation followed
/// by the spec's mutation, all driven by the spec's seed).
Instance build_instance(const CaseSpec& spec);

// ------------------------------------------------------------- pipeline --

/// Switches for the checked pipeline runner.
struct PipelineOptions {
  bool run_hierarchy = true;  ///< also build the separator hierarchy
  bool run_dfs = true;        ///< also build and validate the DFS tree
  int leaf_size = 8;          ///< hierarchy recursion stops at this size
  /// Capture the CONGEST message trace of the run and check the per-edge
  /// per-round bandwidth discipline on it; also exercises the
  /// message-level part-wise aggregation protocol.
  bool capture_trace = false;
  /// Round envelopes (see oracles.hpp). Calibrated against the current
  /// engine over 500 cases across all families up to n=140: the observed
  /// maxima are ~6.6·(D+1)·log²n (separator) and ~24.4·(D+1)·log²n (DFS),
  /// with small-n constant floors of ~480 and ~950 rounds. The envelope
  /// already allows 2× on top of these budgets, so tripping it means the
  /// cost more than doubled against calibration.
  RoundEnvelope separator_envelope{8.0, 512};
  RoundEnvelope dfs_envelope{30.0, 1024};
};

/// Measured statistics of one checked pipeline run.
struct PipelineStats {
  int n = 0;                         ///< node count after triangulation
  int diameter_bound = 0;            ///< BFS diameter bound used in budgets
  long long separator_measured = 0;  ///< separator measured rounds
  long long separator_charged = 0;   ///< separator charged (analytic) rounds
  int separator_phase = 0;           ///< phase the separator came from
  int hierarchy_levels = 0;          ///< levels built by the hierarchy
  int dfs_phases = 0;                ///< DFS builder phase count
  long long dfs_measured = 0;        ///< DFS measured rounds
  long long dfs_charged = 0;         ///< DFS charged (analytic) rounds
  long long trace_messages = 0;      ///< captured messages (if capturing)
};

/// Runs the full pipeline on the instance, folding every stage's oracle
/// into `rep`; returns measured statistics.
PipelineStats run_pipeline_checked(const Instance& inst,
                                   const PipelineOptions& opt,
                                   InvariantReport& rep);

// -------------------------------------------------------------- runner --

/// Knobs of the property runner.
struct PropConfig {
  int cases = 200;  ///< seeded cases to run
  /// Families to draw from; empty = a default diverse set spanning grids,
  /// triangulations, sparse random planar, outerplanar, cycles, trees and
  /// wheels.
  std::vector<planar::Family> families;
  int min_n = 12;  ///< smallest target node count
  int max_n = 96;  ///< largest target node count
  /// Probability that a case carries a mutation.
  double mutation_probability = 0.35;
  /// Fault families to draw from; empty (the default) keeps every case
  /// failure-free and leaves the case-seed stream untouched, so existing
  /// suites reproduce bit-for-bit.
  std::vector<FaultFamily> fault_families;
  /// Probability that a case carries a fault family (only consulted when
  /// fault_families is non-empty).
  double fault_probability = 0.75;
  std::uint64_t base_seed = 1;  ///< seed of the whole run (case seeds derive)
  /// Max extra property evaluations spent shrinking one failure.
  int shrink_budget = 48;
  /// Stop after this many failures (each is shrunk, which costs runs).
  int max_failures = 3;
};

/// A property: checks one instance, recording violations in the report.
using Property = std::function<void(const Instance&, InvariantReport&)>;

/// One failing case, before and after shrinking.
struct Failure {
  CaseSpec original;   ///< the case as originally drawn
  CaseSpec shrunk;     ///< the minimized failing case
  std::string replay;  ///< replay command of the shrunk case
  std::string report;  ///< violations of the shrunk case
};

/// Outcome of a run_property sweep.
struct PropResult {
  int cases_run = 0;              ///< total property evaluations
  std::vector<Failure> failures;  ///< shrunk failures (empty = pass)
  bool ok() const { return failures.empty(); }  ///< no failures?
  /// "420 cases ok" or the replay commands of every failure.
  std::string summary() const;
};

/// Runs `cfg.cases` seeded instances of the property. Each failure is
/// greedily shrunk and reported as a single line on stderr:
///   [proptest] FAIL <name>; replay: --seed=... --family=... --n=...
PropResult run_property(const std::string& name, const PropConfig& cfg,
                        const Property& prop);

/// Re-runs the property on one spec — the replay entry point.
InvariantReport run_one(const CaseSpec& spec, const Property& prop);

/// The default family mix used when PropConfig::families is empty.
std::vector<planar::Family> default_families();

}  // namespace plansep::testing
