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
// The constructor precomputes depths, subtree sizes n_T(v), and the
// LEFT/RIGHT-DFS-ORDERs π_ℓ, π_r (§3.1.1). Orders are 1-based within the
// member set, so subtree intervals are [π(v), π(v)+n_T(v)−1].

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

class RootedSpanningTree {
 public:
  /// Builds from explicit parent darts: parent_dart[v] is the dart v→parent
  /// for every member v except the root (kNoDart). Nodes with kNoDart other
  /// than the root are non-members. `root_stub_pos` is the rotation gap at
  /// the root where the virtual-root dart is conceptually inserted
  /// (0 <= pos <= degree(root)): the stub sits before rotation index pos.
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

  const EmbeddedGraph& graph() const { return *g_; }
  NodeId root() const { return root_; }
  int root_stub_pos() const { return root_stub_pos_; }

  /// Number of member nodes.
  int size() const { return static_cast<int>(nodes_.size()); }
  /// Member nodes (unspecified order).
  const std::vector<NodeId>& nodes() const { return nodes_; }
  bool contains(NodeId v) const { return v == root_ || parent_dart_[v] != kNoDart; }

  NodeId parent(NodeId v) const;
  DartId parent_dart(NodeId v) const { return parent_dart_[v]; }
  int depth(NodeId v) const { return depth_[v]; }
  int subtree_size(NodeId v) const { return subtree_size_[v]; }
  /// Children in clockwise rotation order starting after the parent dart.
  std::span<const NodeId> children(NodeId v) const {
    return {child_data_.data() + child_off_[v],
            child_data_.data() + child_off_[v + 1]};
  }

  bool is_tree_edge(EdgeId e) const { return tree_edge_[e] != 0; }

  /// Clockwise offset of dart d (tail must be a member) from the parent
  /// dart of tail(d); the parent dart has offset 0, every other member dart
  /// offset >= 1. Darts to non-members still get an offset (they are simply
  /// never compared by callers working inside G[P]).
  int t_offset(DartId d) const;

  /// LEFT-DFS-ORDER / RIGHT-DFS-ORDER positions (1-based, members only).
  int pi_left(NodeId v) const { return pi_left_[v]; }
  int pi_right(NodeId v) const { return pi_right_[v]; }

  /// True iff a is an ancestor of d (inclusive: is_ancestor(v, v) == true).
  bool is_ancestor(NodeId a, NodeId d) const;

  NodeId lca(NodeId u, NodeId v) const;

  /// Node sequence of the tree path from u to v (inclusive).
  std::vector<NodeId> path(NodeId u, NodeId v) const;

 private:
  void build();

  const EmbeddedGraph* g_;
  NodeId root_;
  int root_stub_pos_;
  std::vector<DartId> parent_dart_;
  std::vector<NodeId> nodes_;
  std::vector<int> depth_;
  std::vector<int> subtree_size_;
  // Children in CSR layout (flat data + per-node offsets) to avoid a
  // per-node vector allocation in every per-part tree.
  std::vector<NodeId> child_data_;
  std::vector<int> child_off_;
  std::vector<char> tree_edge_;
  std::vector<int> pi_left_;
  std::vector<int> pi_right_;
};

/// Node weights over a RootedSpanningTree: the sums that Definition 2 and
/// the augmentation and sweep weights (faces/weights.hpp,
/// faces/augmentation.hpp) read, with counts generalized to weights.
/// Unit weights are read straight off the tree (n_T(v), π positions,
/// depth + 1), so they build no arrays; other weights build the subtree,
/// π-prefix and root-path sums once, in O(n).
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
    return weight_ ? subtree_[v] : t_->subtree_size(v);
  }
  /// Σ w over the members at positions lo..hi of π_ℓ (left) or π_r
  /// (hi − lo + 1 under unit weights).
  long long interval(int lo, int hi, bool left) const;
  /// Σ w over the tree path root..v (depth + 1 under unit weights).
  long long root_path(NodeId v) const {
    return weight_ ? root_path_[v] : t_->depth(v) + 1;
  }
  /// Σ w over the tree path a..b, both ends included.
  long long path(NodeId a, NodeId b) const;
  /// The weighted centroid: every component of T − c weighs at most half
  /// the total, so the path root→c is a balanced separator of a tree.
  NodeId centroid() const;

 private:
  const RootedSpanningTree* t_;
  const std::vector<long long>* weight_ = nullptr;  // null: unit weights
  long long total_ = 0;
  std::vector<long long> subtree_;    // per node id
  std::vector<long long> root_path_;  // per node id
  std::vector<long long> prefix_l_;   // Σ w at π_ℓ positions 1..k
  std::vector<long long> prefix_r_;
};

}  // namespace plansep::tree
