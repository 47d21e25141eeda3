#pragma once

// Fundamental edges of a spanning tree (§2).
//
// Given a planar configuration (G, E, T) over a member set P, the *real*
// fundamental edges are the edges of G[P] not in T. Each real fundamental
// edge e = uv (normalized so π_ℓ(u) < π_ℓ(v)) defines a unique real
// fundamental face F_e: the side of the cycle (T-path(u,v) + e) away from
// the virtual root (§4). This header provides enumeration and per-edge
// analysis: ancestor relation and E-left/E-right orientation (Definition 1).

#include <span>

#include "tree/rooted_tree.hpp"

namespace plansep::faces {

using planar::DartId;
using planar::EdgeId;
using planar::EmbeddedGraph;
using planar::NodeId;
using tree::RootedSpanningTree;

struct FundamentalEdge {
  EdgeId edge = planar::kNoEdge;
  NodeId u = planar::kNoNode;  // endpoint with smaller π_ℓ
  NodeId v = planar::kNoNode;  // endpoint with larger π_ℓ
  bool u_ancestor_of_v = false;
  /// Meaningful only when u_ancestor_of_v: Definition 1. z is the first
  /// node of the T-path from u to v (a child of u); the edge is E-left
  /// oriented iff t_u(v) < t_u(z).
  bool left_oriented = false;
  NodeId z = planar::kNoNode;  // child of u towards v when u_ancestor_of_v
  /// The LCA of u and v (u itself when u_ancestor_of_v), found once here
  /// so that no later reader walks the tree for it.
  NodeId lca = planar::kNoNode;
};

/// All real fundamental edges of T (edges of G between two members of T
/// that are not tree edges), in edge-id order. Found with the tree, in
/// the one pass over the edges that builds its forest.
inline std::span<const EdgeId> real_fundamental_edges(
    const RootedSpanningTree& t) {
  return t.non_tree_edges();
}

/// Analyzes one real fundamental edge (normalization + Definition 1 + the
/// LCA).
FundamentalEdge analyze_fundamental_edge(const RootedSpanningTree& t, EdgeId e);

/// The child of ancestor `a` on the tree path towards its strict
/// descendant `d` (the paper's node z).
NodeId child_towards(const RootedSpanningTree& t, NodeId a, NodeId d);

}  // namespace plansep::faces
