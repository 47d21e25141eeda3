#pragma once

// Face membership from endpoint-local data (Remark 1 / Lemma 15).
//
// The distributed DETECT-FACE subroutine works by broadcasting O(log n)
// bits of data about the endpoints of a fundamental edge e = uv; every
// node then decides *locally* whether it lies inside F_e, on its border,
// or outside. FaceData is exactly that broadcast payload:
//   * π_ℓ/π_r positions, subtree sizes and depths of u and v,
//   * the π-order intervals I(u), I(v) covering the subtrees of u's and
//     v's children that hang inside the face (contiguous in both orders
//     because inside children occupy a contiguous rotation arc).
// A node z combines the payload with its own (π_ℓ(z), π_r(z), n_T(z),
// depth) to evaluate the Remark 1 characterization.

#include "faces/fundamental.hpp"

namespace plansep::faces {

/// Inclusive interval of DFS-order positions; empty when lo > hi.
struct PiInterval {
  int lo = 1;
  int hi = 0;
  bool contains(int x) const { return x >= lo && x <= hi; }
  bool empty() const { return lo > hi; }
};

/// The broadcast payload for one fundamental face (real or the canonical
/// augmentation face of a virtual edge).
struct FaceData {
  FundamentalEdge fe;
  int pi_l_u = 0, pi_r_u = 0, n_u = 0, depth_u = 0;
  int pi_l_v = 0, pi_r_v = 0, n_v = 0, depth_v = 0;
  /// π_ℓ and π_r intervals of the inside-hanging child subtrees of u / v.
  PiInterval inside_u_l, inside_u_r;
  PiInterval inside_v_l, inside_v_r;
  /// Whether the Remark 1 interval test uses π_ℓ (cases 1, 2) or π_r
  /// (case 3).
  bool use_left = true;
  /// Depth of the LCA fe.lca of u and v (== depth_u when u is an ancestor
  /// of v); distributively obtained via the LCA-PROBLEM (Lemma 14).
  int depth_w = 0;
  /// π_ℓ position and subtree size of the path child z1 of u towards v
  /// (meaningful only when u is an ancestor of v).
  int pi_l_z1 = 0;
  int n_z1 = 0;
};

/// Computes the payload for a real fundamental edge, in O(deg u + deg v).
FaceData face_data(const RootedSpanningTree& t, const FundamentalEdge& fe);

/// Local position data a node contributes (its own knowledge).
struct NodeData {
  NodeId id = planar::kNoNode;
  int pi_l = 0, pi_r = 0, n = 0, depth = 0;
};

NodeData node_data(const RootedSpanningTree& t, NodeId z);

/// Classification of z with respect to F_e, computed from (FaceData,
/// NodeData) only — the local decision rule of DETECT-FACE.
enum class FaceSide { kBorder, kInside, kOutside };

FaceSide classify_node(const FaceData& fd, const NodeData& z);

/// The rotation offsets t_x(c) (t_offset of the tree dart x→c) of the
/// children c of endpoint x (fe.u or fe.v) whose subtrees hang inside F_e,
/// counted by p_{F_e}(x): the open range (lo, hi), an arc of x's rotation
/// (Claims 1 and 4).
struct OffsetRange {
  int lo = 0;
  int hi = 0;
  bool contains(int off) const { return off > lo && off < hi; }
};
OffsetRange inside_offsets(const RootedSpanningTree& t,
                           const FundamentalEdge& fe, NodeId x);

/// t_x(c) of a non-root member c, x its parent.
int child_offset(const RootedSpanningTree& t, NodeId c);

/// For a dart d whose tail lies on the border of F_e (fd's face) and which
/// is not one of the cycle darts, whether d points into the inside region
/// of F_e — the arc conditions of Claims 1 and 4, evaluated at any border
/// node (endpoints, the LCA, or internal path nodes). This is the local
/// rule by which a border node decides which of its incident edges open
/// into the face.
bool dart_points_inside(const RootedSpanningTree& t, const FaceData& fd,
                        DartId d);

}  // namespace plansep::faces
