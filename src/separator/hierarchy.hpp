#pragma once

// Recursive separator decomposition — the divide-and-conquer driver that
// motivated separators in the first place (Lipton–Tarjan [14, 15], cited
// throughout the paper's introduction).
//
// The hierarchy splits the graph level by level: every piece larger than
// `leaf_size` gets a cycle separator (all pieces of a level in parallel —
// one Theorem-1 invocation per level, Õ(D) each), its separator nodes are
// set aside, and the remaining components become the children pieces.
// Balance guarantees O(log(n / leaf_size)) levels.

#include "separator/engine.hpp"

namespace plansep::separator {

struct HierarchyPiece {
  int level = 0;                  // root piece = level 0
  int parent = -1;                // index into pieces; -1 for roots
  std::vector<NodeId> nodes;      // the piece before splitting
  std::vector<NodeId> separator;  // empty for leaves
  std::vector<int> children;      // indices into pieces
  bool is_leaf() const { return separator.empty(); }
};

struct SeparatorHierarchy {
  std::vector<HierarchyPiece> pieces;
  std::vector<char> in_separator;  // union over all levels, per node
  int levels = 0;
  long long separator_nodes = 0;
  shortcuts::RoundCost cost;

  /// Leaf piece containing v, or -1 if v is a separator node. Throws
  /// CheckError when v is outside [0, n).
  int leaf_of(NodeId v) const;

  /// Number of nodes the per-node tables cover.
  NodeId num_nodes() const { return static_cast<NodeId>(leaf_of_.size()); }

  /// Recomputes every derived table — children links, in_separator,
  /// leaf_of, levels, separator_nodes — from `pieces` alone. Both
  /// build_hierarchy and the kHierarchy artifact decoder derive them this
  /// way: only the pieces are persisted, the rest is a pure function of
  /// them.
  void rebuild_derived(NodeId n);

 private:
  std::vector<int> leaf_of_;  // per node; filled by rebuild_derived
};

/// Builds the full hierarchy over the graph g (one root piece per
/// connected component). Pieces with at most `leaf_size` nodes are not
/// split further.
SeparatorHierarchy build_hierarchy(const planar::EmbeddedGraph& g,
                                   shortcuts::PartwiseEngine& engine,
                                   int leaf_size);

}  // namespace plansep::separator
