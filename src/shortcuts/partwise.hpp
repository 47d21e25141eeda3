#pragma once

// Part-wise aggregation (Definition 6) — the workhorse primitive.
//
// The paper performs essentially all communication through part-wise
// aggregation, solved in Õ(D) rounds by deterministic low-congestion
// shortcuts (Propositions 2 and 4, Haeupler–Hershkowitz–Wajc). We do not
// reimplement the HHW scheduling machinery (DESIGN.md, substitution 1);
// instead each aggregate is priced as the cheaper of two strategies:
//
//   1. *Intra-part trees*: every part aggregates over a BFS tree of its own
//      induced subgraph. Parts are vertex-disjoint, so all parts proceed in
//      parallel with zero cross-part congestion; the cost is
//      2·(max part BFS height) + O(1) rounds. This is exact and
//      congestion-free but can exceed O(D) for snake-shaped parts — the
//      very case shortcuts were invented for.
//
//   2. *Global-tree pipelining* (message-level simulation): values stream
//      up a global BFS tree with per-part combining at internal nodes, one
//      message per edge per round, then results stream back down. Cost
//      O(D + congestion), where congestion is the maximum number of
//      distinct parts whose streams share a tree edge.
//
// The measured cost of an aggregate is the cheaper of the two (a scheduler
// would run both concurrently and stop at the first to finish); the
// charged cost is the paper's O(D) per invocation. Strategy 1 is always
// computed. Strategy 2 never beats max(D + 2, P + 1) + D rounds
// (D = deepest global-BFS depth of a participating node, P = number of
// parts; proof in aggregate() and DESIGN.md), so its schedule is
// simulated only when the intra-part cost exceeds that bound, or when no
// node participates.

#include <cstdint>
#include <functional>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "shortcuts/cost.hpp"

namespace plansep::shortcuts {

using congest::EmbeddedGraph;
using congest::NodeId;

enum class AggOp { kMin, kMax, kSum };

struct AggregateResult {
  /// Per node: the aggregate over its part (undefined for part -1 nodes).
  std::vector<std::int64_t> value;
  RoundCost cost;
};

class PartwiseEngine {
 public:
  /// Builds the global BFS tree from `root` via the message-level wave.
  /// The construction cost is recorded in setup_cost().
  PartwiseEngine(const EmbeddedGraph& g, NodeId root);

  /// Adopts a precomputed global BFS tree (e.g. the job stages'
  /// spanning-tree artifact). setup_cost() and every derived structure are
  /// pure functions of `bfs`, so an engine built this way is
  /// indistinguishable from one that ran distributed_bfs itself.
  PartwiseEngine(const EmbeddedGraph& g, congest::BfsResult bfs);

  /// Part-wise aggregate: part[v] in {-1 (absent), 0, 1, ...}; value[v] is
  /// v's input. Every node of a part learns the aggregate of its part.
  /// Parts must induce connected subgraphs of g.
  AggregateResult aggregate(const std::vector<int>& part,
                            const std::vector<std::int64_t>& value, AggOp op);

  /// Broadcast within parts: exactly the aggregate with kMax where
  /// non-source nodes contribute the minimum value. Provided for intent.
  AggregateResult broadcast(const std::vector<int>& part,
                            const std::vector<std::int64_t>& source_value,
                            const std::vector<char>& is_source);

  int diameter_bound() const { return bfs_.height; }
  RoundCost setup_cost() const { return setup_cost_; }
  const congest::BfsResult& global_tree() const { return bfs_; }
  const EmbeddedGraph& graph() const { return *g_; }

  /// Paper-accounting charge for one Õ(D)-round black-box call (used for
  /// Proposition 5 ancestor/descendant sums and similar primitives the
  /// paper cites as prior work).
  RoundCost blackbox_charge() const;

  /// The analytic round schedule of the global-tree pipelining strategy
  /// alone (diagnostics; cross-validated against the message-level
  /// protocol in shortcuts/partwise_message.hpp).
  long long global_schedule_rounds(const std::vector<int>& part) const {
    return global_tree_rounds(part);
  }

  /// The round cost of the intra-part strategy alone (diagnostics; the
  /// counterpart of global_schedule_rounds).
  long long intra_schedule_rounds(const std::vector<int>& part) const {
    return intra_part_rounds(part).rounds;
  }

 private:
  /// One BFS pass over the parts: the intra-part cost, plus the deepest
  /// global-BFS depth of a participating node (-1 if none) and the number
  /// of distinct parts.
  struct IntraScan {
    long long rounds = 0;
    int deepest = -1;
    int parts = 0;
  };

  void init_derived();

  IntraScan intra_part_rounds(const std::vector<int>& part) const;
  long long global_tree_rounds(const std::vector<int>& part) const;

  const EmbeddedGraph* g_;
  congest::BfsResult bfs_;
  RoundCost setup_cost_;
  std::vector<std::vector<NodeId>> bfs_children_;
  std::vector<NodeId> bfs_order_;  // by increasing depth
};

}  // namespace plansep::shortcuts
