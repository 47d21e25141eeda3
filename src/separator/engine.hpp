#pragma once

// Deterministic cycle-separator computation (Theorem 1, §5.3).
//
// Given a PartSet (per-part rooted spanning trees with their distributed
// representation), the engine marks in every part a tree path whose
// removal leaves components of at most 2/3 of the part — a cycle separator
// in the paper's sense (the path is closed by a real fundamental edge or
// by an embedding-compatible virtual edge).
//
// Phases follow §5.3:
//   * Phase 2 — tree parts: root→centroid path.
//   * Phase 3 — a real fundamental face with ω ∈ [n/3, 2n/3], or (Lemma 1,
//     case 3) a fundamental edge whose tree path already has ≥ n/3 nodes.
//   * Phase 4 — some face has ω > 2n/3: full augmentation from u of a
//     minimal such face; Sub-phase 4.1 picks a leaf with augmented weight
//     in range (falling back to the hiding edge of Definition 4 / Lemma 7
//     when the leaf is hidden), Sub-phase 4.2 marks the face's own path.
//   * Phase 5 — all faces have ω < n/3: the outside split F_ℓ/F_r of a
//     maximal face (Lemma 8).
//
// Engineering hardening (documented deviation): every candidate path is
// *balance-verified* before being committed — one connected-components
// pass (a Borůvka run, Õ(D)) plus a part-wise size aggregation. The
// verification does not change the asymptotics and makes the engine
// robust to the corner cases where the paper's prose is under-specified;
// `stats` records which phase produced each part's separator and whether
// any part ever needed the last-resort exhaustive fallback (the test
// suite asserts it never fires).
//
// One skeleton serves every engine: the unweighted and weighted engines
// differ only in the candidates they propose (SeparatorEngine::search
// verifies, settles and falls back for both), the randomized baseline
// (baselines/randomized_separator.hpp) settles its sampled candidates
// through SeparatorResult::settle, and all three price their part-wise
// aggregations with shortcuts::aggregations.

#include <array>
#include <functional>

#include "faces/fundamental.hpp"
#include "subroutines/part_context.hpp"

namespace plansep::separator {

using faces::FundamentalEdge;
using planar::EdgeId;
using planar::NodeId;
using shortcuts::RoundCost;
using sub::PartSet;

struct PartSeparator {
  std::vector<NodeId> path;  // the marked tree path (the separator set)
  NodeId endpoint_a = planar::kNoNode;
  NodeId endpoint_b = planar::kNoNode;
  /// Real edge closing the cycle, or kNoEdge when the closing edge is
  /// virtual (embedding-compatible) or the separator is a tree path.
  EdgeId closing_edge = planar::kNoEdge;
  /// Which phase produced it: 2 (tree), 3 (in-range face), 33 (long path),
  /// 41 (augmented leaf), 45 (hidden fallback), 42 (face path), 5x
  /// (Phase 5 cases), 99 (last-resort fallback; should never happen).
  int phase = 0;
};

struct SeparatorStats {
  std::array<long long, 8> phase_counts{};  // 2,3,33,41,45,42,5x,99
  long long parts = 0;
  /// Ablation counters for the balance-verification hardening: total
  /// candidates verified and how many parts were settled by their first
  /// (paper-prescribed) candidate.
  long long candidates_tried = 0;
  long long first_candidate_hits = 0;
  void record(int phase);
};

/// A proposed separator of one part: a tree path, the real edge closing
/// its cycle (kNoEdge when the closure is virtual or the path is a bare
/// tree path) and the phase that proposed it (PartSeparator::phase).
struct Candidate {
  std::vector<NodeId> path;
  EdgeId closing = planar::kNoEdge;
  int phase = 0;
};

struct SeparatorResult {
  std::vector<PartSeparator> parts;  // indexed by part id
  std::vector<char> marked;          // union over parts, per node
  RoundCost cost;
  SeparatorStats stats;

  /// Commits `c` as part p's separator, the one place a PartSeparator is
  /// filled: the path's ends become its endpoints, its nodes are marked
  /// and its phase is recorded in `stats`. `c.path` must not be empty.
  void settle(int p, Candidate c);
};

class SeparatorEngine {
 public:
  explicit SeparatorEngine(shortcuts::PartwiseEngine& engine)
      : engine_(&engine) {}

  /// Computes a cycle separator of every part (Theorem 1). All parts
  /// proceed through the phases in parallel; the reported cost reflects
  /// that (each phase's aggregations are charged once across parts).
  SeparatorResult compute(const PartSet& ps);

  /// Weighted extension (the direction the paper's conclusion points at —
  /// SSSP/diameter applications need weighted separators): marks in every
  /// part a tree path whose removal leaves components of weight at most
  /// 2/3 of the part's total weight. Candidates come from the unweighted
  /// phases plus weighted sweeps (weighted centroid; weighted root sweep
  /// via π-order prefix sums, one Proposition-5-style charge); every
  /// candidate is weighted-balance-verified. A node carrying more than
  /// 2/3 of the weight is itself a valid separator and is handled
  /// explicitly. `weight[v]` must be non-negative.
  SeparatorResult compute_weighted(const PartSet& ps,
                                   const std::vector<long long>& weight);

 private:
  /// Part p's candidates, in the order they are verified.
  using Proposer = std::function<std::vector<Candidate>(int p)>;

  /// The search both engines run: settles in every part with a tree the
  /// first proposed candidate whose removal balances under `weight`
  /// (unit weights when empty) or, when none does, the last-resort scan
  /// over every fundamental-edge path and every root path (phase 99),
  /// which counts as one more tried candidate. Returns the most
  /// candidates any part tried.
  static int search(const PartSet& ps, const Proposer& propose,
                    const std::vector<long long>& weight,
                    SeparatorResult& out);
  /// The part-wise aggregations of `rounds` verification rounds over ps,
  /// each one components pass (O(log n) aggregations) plus a size
  /// aggregation, shared across parts.
  static long long verification_aggregations(const PartSet& ps, int rounds);

  shortcuts::PartwiseEngine* engine_;
};

/// Theorem 1 on a whole connected graph, as one part.
struct WholeGraphSeparator {
  PartSet parts;           ///< g as part 0, its tree rooted at the root
  SeparatorResult result;  ///< the engine's output on `parts`
  RoundCost cost;          ///< engine setup + part-set build + engine
  /// The whole graph's separator.
  const PartSeparator& separator() const { return result.parts.at(0); }
};

/// The one whole-graph recipe (the core facade, the separator job stage,
/// its fault twin and the proptest runner all compute through it): builds
/// the one-part set of g rooted at `root` over `engine`, a BFS tree of g,
/// and runs the separator engine on it.
WholeGraphSeparator separate_whole_graph(const planar::EmbeddedGraph& g,
                                         shortcuts::PartwiseEngine& engine,
                                         NodeId root);

}  // namespace plansep::separator
