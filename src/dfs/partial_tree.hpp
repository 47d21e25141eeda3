#pragma once

// Partial DFS trees (§3.2).
//
// A partial DFS tree T_d is a rooted subtree of G grown exclusively by the
// DFS-RULE: a new path is attached at a node r_C of a component C of
// G − T_d having the deepest T_d-neighbor, and runs from r_C into C. Nodes
// keep their parent and depth forever once added. The final tree is a DFS
// tree iff every edge of G joins an ancestor/descendant pair
// (dfs/validate.hpp).

#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::dfs {

using planar::EmbeddedGraph;
using planar::NodeId;

class PartialDfsTree {
 public:
  PartialDfsTree(const EmbeddedGraph& g, NodeId root);

  NodeId root() const { return root_; }
  bool contains(NodeId v) const { return depth_[static_cast<std::size_t>(v)] >= 0; }
  int depth(NodeId v) const { return depth_[static_cast<std::size_t>(v)]; }
  NodeId parent(NodeId v) const { return parent_[static_cast<std::size_t>(v)]; }
  /// Parent per node (kNoNode for the root and for nodes not yet added).
  const std::vector<NodeId>& parents() const { return parent_; }
  /// Depth per node (-1 for nodes not yet added).
  const std::vector<int>& depths() const { return depth_; }
  int size() const { return size_; }
  const EmbeddedGraph& graph() const { return *g_; }

  /// Attaches `path` (ordered, starting at the attachment node r_C) below
  /// `anchor`, which must already be in the tree and adjacent to path[0].
  /// Every path node must be outside the tree and consecutive path nodes
  /// adjacent in G (the DFS-RULE).
  void attach_path(NodeId anchor, const std::vector<NodeId>& path);

  /// Deepest T_d-neighbor of v (kNoNode if none): the DFS-RULE anchor rule.
  NodeId deepest_tree_neighbor(NodeId v) const;

 private:
  const EmbeddedGraph* g_;
  NodeId root_;
  int size_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> depth_;
};

}  // namespace plansep::dfs
