#pragma once

// DFS tree validation. A rooted spanning tree T of an undirected graph G
// is a DFS tree iff every non-tree edge of G joins an ancestor/descendant
// pair — the classic characterization the tests rely on.

#include <span>
#include <string>

#include "dfs/partial_tree.hpp"

namespace plansep::dfs {

struct DfsCheck {
  bool spanning = false;           // every node reached, parents consistent
  bool depths_consistent = false;  // depth(v) == depth(parent)+1
  bool dfs_property = false;       // all edges ancestor-related
  long long violating_edges = 0;
  bool ok() const { return spanning && depths_consistent && dfs_property; }
  /// One-line failure description, e.g. "dfs_property (3 violating edges)".
  std::string summary() const;
};

/// The one DFS check, over untrusted (root, parent, depth) arrays such as
/// a decoded artifact: arrays of the wrong length or a root out of range
/// fail every property, a parent id out of range or not adjacent fails
/// `spanning`. O(n + m): ancestor tests by Euler intervals.
DfsCheck check_dfs_tree(const planar::EmbeddedGraph& g, NodeId root,
                        std::span<const NodeId> parent,
                        std::span<const int> depth);

/// check_dfs_tree over a built tree's arrays.
inline DfsCheck check_dfs_tree(const planar::EmbeddedGraph& g,
                               const PartialDfsTree& tree) {
  return check_dfs_tree(g, tree.root(), tree.parents(), tree.depths());
}

}  // namespace plansep::dfs
