#pragma once

// Rooted spanning trees over (subsets of) an embedded graph.
//
// A RootedSpanningTree represents the paper's planar configuration
// (G, E, T) restricted to a member set P ⊆ V: a spanning tree of G[P]
// rooted at r, with children ordered by the clockwise rotation t_v starting
// right after the parent edge (the paper's convention t_v(parent) = 0; §2,
// §5.1). At the root the "parent" is the virtual dart to the virtual root
// r0 (§4), represented by a rotation gap index (`root_stub_pos`).
//
// Construction precomputes depths, subtree sizes n_T(v), the
// LEFT/RIGHT-DFS-ORDERs π_ℓ, π_r (§3.1.1) and the real fundamental edges.
// Orders are 1-based within the member set, so subtree intervals are
// [π(v), π(v)+n_T(v)−1]. The trees of a partition's parts (a DFS or
// separator phase) are built together, in one O(n + m) pass over shared
// node-indexed arrays (forest()); each tree is a view of that forest, and
// a standalone tree is the forest of one part.

#include <memory>
#include <span>
#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::tree {

using planar::DartId;
using planar::EdgeId;
using planar::EmbeddedGraph;
using planar::kNoDart;
using planar::kNoNode;
using planar::NodeId;

/// The node- and edge-indexed arrays of a rooted spanning forest, shared by
/// the RootedSpanningTree views of its trees. Built once, in O(n + m),
/// and immutable afterwards.
struct ForestArrays {
  const EmbeddedGraph* g = nullptr;
  // Per node.
  std::vector<int> tree_of;  // index of the node's tree; -1 = in none
  std::vector<DartId> parent_dart;
  std::vector<int> depth;
  std::vector<int> subtree_size;
  std::vector<int> pi_left;
  std::vector<int> pi_right;
  // Children in CSR layout: children of v at child_data[child_off[v] ..
  // child_off[v + 1]), clockwise starting after the parent dart.
  std::vector<int> child_off;
  std::vector<NodeId> child_data;
  // Per edge.
  std::vector<char> tree_edge;
  // Per tree.
  std::vector<NodeId> root;
  std::vector<int> root_stub_pos;
  // Members of tree i at members[member_off[i] .. member_off[i + 1]),
  // ascending; its real fundamental edges likewise, in edge-id order.
  std::vector<int> member_off;
  std::vector<NodeId> members;
  std::vector<int> fund_off;
  std::vector<EdgeId> fund;
};

class RootedSpanningTree {
 public:
  /// Builds from explicit parent darts: parent_dart[v] is the dart v→parent
  /// for every member v except the root (kNoDart). Nodes with kNoDart other
  /// than the root are non-members. `root_stub_pos` is the rotation gap at
  /// the root where the virtual-root dart is conceptually inserted
  /// (0 <= pos <= degree(root)): the stub sits before rotation index pos.
  /// This is the one-tree case of forest().
  RootedSpanningTree(const EmbeddedGraph& g, NodeId root,
                     std::vector<DartId> parent_dart, int root_stub_pos = 0);

  /// BFS spanning tree of the whole graph (must be connected).
  static RootedSpanningTree bfs(const EmbeddedGraph& g, NodeId root,
                                int root_stub_pos = 0);

  /// BFS spanning tree of the member set (G[in_set] containing root must be
  /// connected and cover all of in_set).
  static RootedSpanningTree bfs_subset(const EmbeddedGraph& g, NodeId root,
                                       const std::vector<char>& in_set,
                                       int root_stub_pos = 0);

  /// The trees of every part of a partition, built together in one
  /// O(n + m) pass over shared arrays: element p spans the nodes with
  /// part[v] == p, rooted at roots[p] (stub gap 0), along parent_dart[v]
  /// (read for those nodes only). A part whose root is kNoNode gets an
  /// empty tree with no members.
  static std::vector<RootedSpanningTree> forest(
      const EmbeddedGraph& g, const std::vector<int>& part,
      const std::vector<NodeId>& roots,
      const std::vector<DartId>& parent_dart);

  const EmbeddedGraph& graph() const { return *f_->g; }
  NodeId root() const { return f_->root[i_]; }
  int root_stub_pos() const { return f_->root_stub_pos[i_]; }

  /// Number of member nodes.
  int size() const { return f_->member_off[i_ + 1] - f_->member_off[i_]; }
  /// Member nodes, ascending.
  std::span<const NodeId> nodes() const {
    return {f_->members.data() + f_->member_off[i_],
            f_->members.data() + f_->member_off[i_ + 1]};
  }
  /// Real fundamental edges: the non-tree edges joining two members, in
  /// edge-id order.
  std::span<const EdgeId> non_tree_edges() const {
    return {f_->fund.data() + f_->fund_off[i_],
            f_->fund.data() + f_->fund_off[i_ + 1]};
  }
  bool contains(NodeId v) const { return f_->tree_of[v] == i_; }

  // Per-node accessors answer for non-members too: kNoNode / kNoDart,
  // depth −1, subtree size 0, π 0 and no children.
  NodeId parent(NodeId v) const;
  DartId parent_dart(NodeId v) const {
    return contains(v) ? f_->parent_dart[v] : kNoDart;
  }
  int depth(NodeId v) const { return contains(v) ? f_->depth[v] : -1; }
  int subtree_size(NodeId v) const {
    return contains(v) ? f_->subtree_size[v] : 0;
  }
  /// Children in clockwise rotation order starting after the parent dart.
  std::span<const NodeId> children(NodeId v) const {
    if (!contains(v)) return {};
    return {f_->child_data.data() + f_->child_off[v],
            f_->child_data.data() + f_->child_off[v + 1]};
  }

  bool is_tree_edge(EdgeId e) const {
    return f_->tree_edge[e] != 0 && contains(f_->g->edge_u(e));
  }

  /// Clockwise offset of dart d (tail must be a member) from the parent
  /// dart of tail(d); the parent dart has offset 0, every other member dart
  /// offset >= 1. Darts to non-members still get an offset (they are simply
  /// never compared by callers working inside G[P]).
  int t_offset(DartId d) const;

  /// LEFT-DFS-ORDER / RIGHT-DFS-ORDER positions (1-based, members only).
  int pi_left(NodeId v) const { return contains(v) ? f_->pi_left[v] : 0; }
  int pi_right(NodeId v) const { return contains(v) ? f_->pi_right[v] : 0; }

  /// True iff a is an ancestor of d (inclusive: is_ancestor(v, v) == true).
  bool is_ancestor(NodeId a, NodeId d) const;

  NodeId lca(NodeId u, NodeId v) const;

  /// Node sequence of the tree path from u to v (inclusive).
  std::vector<NodeId> path(NodeId u, NodeId v) const;

 private:
  RootedSpanningTree(std::shared_ptr<const ForestArrays> f, int i)
      : f_(std::move(f)), i_(i) {}

  std::shared_ptr<const ForestArrays> f_;
  int i_ = 0;  // this tree's index in *f_
};

/// Node weights over a RootedSpanningTree: the sums that Definition 2 and
/// the augmentation and sweep weights (faces/weights.hpp,
/// faces/augmentation.hpp) read, with counts generalized to weights.
/// Unit weights are read straight off the tree (n_T(v), π positions,
/// depth + 1), so they build no arrays; other weights build the subtree,
/// π-prefix and root-path sums once, in O(size of the tree).
class NodeWeights {
 public:
  /// `weight[v]` per node of t's graph, empty for unit weights. Both t and
  /// a non-empty `weight` must outlive this object.
  explicit NodeWeights(const RootedSpanningTree& t,
                       const std::vector<long long>& weight = {});

  const RootedSpanningTree& tree() const { return *t_; }
  /// Σ w over the members (the member count under unit weights).
  long long total() const { return total_; }
  long long of(NodeId v) const { return weight_ ? (*weight_)[v] : 1; }
  /// Σ w over the subtree T_v (n_T(v) under unit weights).
  long long subtree(NodeId v) const {
    return weight_ ? subtree_[slot(v)] : t_->subtree_size(v);
  }
  /// Σ w over the members at positions lo..hi of π_ℓ (left) or π_r
  /// (hi − lo + 1 under unit weights).
  long long interval(int lo, int hi, bool left) const;
  /// Σ w over the tree path root..v (depth + 1 under unit weights).
  long long root_path(NodeId v) const {
    return weight_ ? root_path_[slot(v)] : t_->depth(v) + 1;
  }
  /// Σ w over the tree path a..b, both ends included; w = lca(a, b).
  long long path(NodeId a, NodeId b, NodeId w) const;
  /// The weighted centroid: every component of T − c weighs at most half
  /// the total, so the path root→c is a balanced separator of a tree.
  NodeId centroid() const;

 private:
  // Member v's slot in the per-member sums: its π_ℓ position, so the sums
  // take the part's size, not the graph's.
  std::size_t slot(NodeId v) const {
    return static_cast<std::size_t>(t_->pi_left(v));
  }

  const RootedSpanningTree* t_;
  const std::vector<long long>* weight_ = nullptr;  // null: unit weights
  long long total_ = 0;
  std::vector<long long> subtree_;    // per π_ℓ position
  std::vector<long long> root_path_;  // per π_ℓ position
  std::vector<long long> prefix_l_;   // Σ w at π_ℓ positions 1..k
  std::vector<long long> prefix_r_;
};

}  // namespace plansep::tree
