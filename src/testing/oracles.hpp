#pragma once

/// \file
/// Centralized invariant oracles: from-scratch re-checks of the paper's
/// structural guarantees, accumulated into an InvariantReport.

// Centralized invariant oracles for the property-based harness.
//
// Each oracle re-checks one of the paper's structural guarantees from
// scratch, with full knowledge of the graph (no distributed state). The
// balance and DFS oracles are re-implementations, not calls into the
// library's own checks (sub::balance_after_removal, dfs::check_dfs_tree),
// so a broken library check cannot vouch for itself:
//
//   * embedding      — the rotation system is a plane embedding (Euler
//                      genus 0) of a connected graph;
//   * triangulation  — apex triangulation leaves every face a triangle and
//                      stays planar;
//   * cycle separator (Theorem 1) — marked set is a simple tree path whose
//                      endpoints the closing edge joins, components of
//                      G[P]−S have ≤ 2/3 of the part (weighted variant:
//                      ≤ 2/3 of the total weight), by reference_balance's
//                      plain BFS;
//   * DFS tree (Theorem 2) — spanning, depths consistent, every graph edge
//                      joins an ancestor/descendant pair, by parent walks;
//   * hierarchy      — pieces partition correctly, children shrink by the
//                      2/3 factor, leaves respect the size cutoff;
//   * bandwidth      — a captured CONGEST trace sends at most one message
//                      per directed edge per round, neighbors only;
//   * round envelope — measured/charged rounds stay within 2× of a budget
//                      calibrated to current behaviour, so regressions of
//                      more than 2× fail loudly.
//
// Violations accumulate in an InvariantReport rather than throwing, so one
// failing case reports every broken invariant at once and the proptest
// shrinker can re-evaluate cheaply.

#include <span>
#include <string>
#include <vector>

#include "planar/triangulate.hpp"
#include "separator/engine.hpp"
#include "separator/hierarchy.hpp"
#include "subroutines/part_context.hpp"
#include "testing/trace.hpp"

namespace plansep::testing {

/// Accumulates invariant violations instead of throwing, so one failing
/// case reports every broken invariant at once.
struct InvariantReport {
  std::vector<std::string> violations;  ///< one entry per violated invariant
  bool ok() const { return violations.empty(); }  ///< nothing violated?
  /// Records one violation.
  void fail(std::string what) { violations.push_back(std::move(what)); }
  /// Newline-joined violation list ("" when ok).
  std::string to_string() const;
};

/// Rotation system is a plane embedding (genus 0); connected when
/// `require_connected`.
void check_embedding(const planar::EmbeddedGraph& g, bool require_connected,
                     InvariantReport& rep);

/// Apex triangulation of g: planar, original ids preserved as a prefix,
/// every face a triangle (unless the graph is too small to have one).
void check_triangulation(const planar::EmbeddedGraph& g,
                         const planar::Triangulation& tri,
                         InvariantReport& rep);

/// The reference balance search behind the separator oracles: a plain BFS
/// over the nodes of part `p` (every node when `part` is empty) minus
/// `removed`, weighted by `weight` (unit weights when empty).
struct ReferenceBalance {
  long long heaviest = 0;  ///< weight of the heaviest remaining component
  long long total = 0;     ///< weight of the part, removed nodes included
  /// No remaining component exceeds 2/3 of the part.
  bool ok() const { return 3 * heaviest <= 2 * total; }
};

/// Runs the reference search; `removed` must name nodes of g.
ReferenceBalance reference_balance(const planar::EmbeddedGraph& g,
                                   const std::vector<int>& part, int p,
                                   const std::vector<planar::NodeId>& removed,
                                   const std::vector<long long>& weight = {});

/// Theorem 1 on part p of ps.
void check_cycle_separator(const sub::PartSet& ps, int p,
                           const separator::PartSeparator& sep,
                           InvariantReport& rep);

/// Weighted Theorem 1: the structural checks of check_cycle_separator
/// (tree path, simple path, closing edge), and components of G[P]−S weigh
/// ≤ 2/3 of the part total.
void check_weighted_separator(const sub::PartSet& ps, int p,
                              const separator::PartSeparator& sep,
                              const std::vector<long long>& weight,
                              InvariantReport& rep);

/// Theorem 2 on (root, parent, depth) arrays: shape, spanning, depths,
/// then the ancestor test by walking parents up from the deeper endpoint
/// of every edge.
void check_dfs_tree_oracle(const planar::EmbeddedGraph& g, planar::NodeId root,
                           std::span<const planar::NodeId> parent,
                           std::span<const int> depth, InvariantReport& rep);

/// Separator-hierarchy structure over connected g.
void check_hierarchy(const planar::EmbeddedGraph& g,
                     const separator::SeparatorHierarchy& h, int leaf_size,
                     InvariantReport& rep);

/// CONGEST discipline over a captured trace: per run, at most one message
/// per directed edge per round, and messages only between neighbors of g.
void check_bandwidth(const planar::EmbeddedGraph& g,
                     const std::vector<TraceEvent>& events,
                     InvariantReport& rep);

/// Round budget: rounds ≤ 2 · max(floor_rounds, per_d_log2n·(D+1)·log²(n+2)).
/// Constants are calibrated to current measurements (see the proptest
/// suites); the factor 2 is the allowed regression headroom.
struct RoundEnvelope {
  double per_d_log2n = 1.0;     ///< budget multiplier on (D+1)·log²(n+2)
  long long floor_rounds = 64;  ///< small-n constant floor
  /// The budget before the 2× regression headroom is applied.
  long long budget(int diameter, int n) const;
};

/// Fails the report when `rounds` exceeds twice the envelope's budget.
void check_round_envelope(const char* stage, long long rounds, int diameter,
                          int n, const RoundEnvelope& env,
                          InvariantReport& rep);

}  // namespace plansep::testing
