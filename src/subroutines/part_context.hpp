#pragma once

// PartSet: the shared state of one parallel invocation over a node
// partition — per-part rooted spanning trees with their distributed
// representation (depth, parent, subtree size, π_ℓ/π_r). The trees are
// views of one forest built in a single O(n + m) pass
// (RootedSpanningTree::forest), so a phase costs O(n + m) however many
// parts it has.
//
// Establishing the representation costs:
//  * spanning forest: Borůvka phases (Lemma 9) — paid in boruvka_forest;
//  * depths and subtree sizes of arbitrary-depth trees: ancestor/descendant
//    sums (Proposition 5, black box) — one charge each;
//  * LEFT/RIGHT-DFS-ORDERs: the fragment-merge algorithm of Lemma 11 —
//    O(log n) phases, each a constant number of part-wise aggregations
//    over the current fragments plus O(1) local rounds. The fragment
//    partition evolves by the parity rule (odd-depth fragments join their
//    parent fragment; depths halve), which charge_dfs_orders simulates to
//    account rounds; the resulting orders equal RootedSpanningTree's.

#include <vector>

#include "shortcuts/partwise.hpp"
#include "subroutines/spanning_forest.hpp"
#include "tree/rooted_tree.hpp"

namespace plansep::sub {

using tree::RootedSpanningTree;

struct PartSet {
  const EmbeddedGraph* g = nullptr;
  std::vector<int> part;  // part id per node; -1 = not participating
  int num_parts = 0;
  std::vector<NodeId> roots;               // per part
  std::vector<RootedSpanningTree> trees;   // per part; views of one forest
  RoundCost cost;  // cost of building this representation

  int part_of(NodeId v) const { return part[static_cast<std::size_t>(v)]; }
  /// Whether part p has a tree (a root); parts without one have no nodes
  /// to work on and an empty tree.
  bool has_tree(int p) const {
    return roots[static_cast<std::size_t>(p)] != planar::kNoNode;
  }
  const RootedSpanningTree& tree_of_part(int p) const { return trees[static_cast<std::size_t>(p)]; }
  int part_size(int p) const { return tree_of_part(p).size(); }
};

/// Builds per-part spanning trees (Borůvka, unit weights) and their full
/// distributed representation. Roots default to each part's minimum-id
/// node; pass `preferred_root[p]` != kNoNode to root part p elsewhere.
PartSet build_part_set(const EmbeddedGraph& g, const std::vector<int>& part,
                       int num_parts, PartwiseEngine& engine,
                       const std::vector<NodeId>& preferred_root = {});

/// Builds a PartSet from existing parent darts (e.g. re-rooted or 0/1-MST
/// forests); charges representation setup (depths/sizes/orders) only.
PartSet part_set_from_forest(const EmbeddedGraph& g,
                             const std::vector<int>& part, int num_parts,
                             const std::vector<planar::DartId>& parent_dart,
                             const std::vector<NodeId>& roots,
                             PartwiseEngine& engine);

/// RE-ROOT (Lemma 19), its local part: re-roots the tree that `parent`
/// (one parent dart per node, kNoDart at the root) describes at
/// `new_root` by flipping the parent darts along the path from `new_root`
/// to the old root, so each ancestor of the new root adopts its path
/// child as parent. The edges stay the same. Charges nothing: callers
/// charge the RE-ROOT-PROBLEM's black-box aggregation.
void re_root_path(const EmbeddedGraph& g,
                  std::vector<planar::DartId>& parent, NodeId new_root);

/// Cost of computing the LEFT/RIGHT-DFS-ORDERs by Lemma 11's fragment
/// merging over the given trees (values themselves come from the tree
/// objects).
RoundCost charge_dfs_orders(PartwiseEngine& engine, const PartSet& ps);

/// The price of one part-wise aggregation over ps's partition, which the
/// separator engines and the named problems scale with
/// shortcuts::aggregations: the cost of one probe aggregation (which
/// advances the obs clock for itself).
RoundCost aggregation_price(PartwiseEngine& engine, const PartSet& ps);

}  // namespace plansep::sub
