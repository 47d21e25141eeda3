#include "faces/membership.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace plansep::faces {

int child_offset(const RootedSpanningTree& t, NodeId c) {
  return t.t_offset(EmbeddedGraph::rev(t.parent_dart(c)));
}

OffsetRange inside_offsets(const RootedSpanningTree& t,
                           const FundamentalEdge& fe, NodeId x) {
  PLANSEP_CHECK(x == fe.u || x == fe.v);
  constexpr int kAll = std::numeric_limits<int>::max();
  const int off_e = t.t_offset(t.graph().dart_from(fe.edge, x));
  if (x == fe.u) {
    if (!fe.u_ancestor_of_v) return {-1, off_e};
    const int off_z = child_offset(t, fe.z);
    return {std::min(off_z, off_e), std::max(off_z, off_e)};
  }
  const bool inside_above = !fe.u_ancestor_of_v || !fe.left_oriented;
  return inside_above ? OffsetRange{off_e, kAll} : OffsetRange{-1, off_e};
}

namespace {

/// The π_ℓ (left) or π_r interval covered by the subtrees of x's children
/// hanging inside F_e.
PiInterval inside_interval(const RootedSpanningTree& t,
                           const FundamentalEdge& fe, NodeId x, bool left) {
  const OffsetRange inside = inside_offsets(t, fe, x);
  PiInterval out;  // empty
  int total = 0;
  for (NodeId c : t.children(x)) {
    if (!inside.contains(child_offset(t, c))) continue;
    const int lo = left ? t.pi_left(c) : t.pi_right(c);
    const int hi = lo + t.subtree_size(c) - 1;
    if (out.empty()) {
      out = {lo, hi};
    } else {
      out.lo = std::min(out.lo, lo);
      out.hi = std::max(out.hi, hi);
    }
    total += t.subtree_size(c);
  }
  // Inside children occupy a contiguous rotation arc, so their subtree
  // blocks are contiguous in both DFS orders.
  PLANSEP_CHECK_MSG(out.empty() || out.hi - out.lo + 1 == total,
                    "inside-children interval is not contiguous");
  return out;
}

}  // namespace

FaceData face_data(const RootedSpanningTree& t, const FundamentalEdge& fe) {
  FaceData fd;
  fd.fe = fe;
  fd.pi_l_u = t.pi_left(fe.u);
  fd.pi_r_u = t.pi_right(fe.u);
  fd.n_u = t.subtree_size(fe.u);
  fd.depth_u = t.depth(fe.u);
  fd.pi_l_v = t.pi_left(fe.v);
  fd.pi_r_v = t.pi_right(fe.v);
  fd.n_v = t.subtree_size(fe.v);
  fd.depth_v = t.depth(fe.v);
  fd.inside_u_l = inside_interval(t, fe, fe.u, /*left=*/true);
  fd.inside_u_r = inside_interval(t, fe, fe.u, /*left=*/false);
  fd.inside_v_l = inside_interval(t, fe, fe.v, /*left=*/true);
  fd.inside_v_r = inside_interval(t, fe, fe.v, /*left=*/false);
  fd.use_left = !fe.u_ancestor_of_v || !fe.left_oriented;
  // Data about the LCA and the path child (needed by the local rule).
  PLANSEP_CHECK_MSG(fe.lca != planar::kNoNode,
                    "fundamental edge was not analyzed");
  fd.depth_w = t.depth(fe.lca);
  if (fe.u_ancestor_of_v) {
    fd.pi_l_z1 = t.pi_left(fe.z);
    fd.n_z1 = t.subtree_size(fe.z);
  }
  return fd;
}

NodeData node_data(const RootedSpanningTree& t, NodeId z) {
  return NodeData{z, t.pi_left(z), t.pi_right(z), t.subtree_size(z),
                  t.depth(z)};
}

namespace {

bool is_anc(int pi_l_a, int n_a, int pi_l_d) {
  return pi_l_d >= pi_l_a && pi_l_d < pi_l_a + n_a;
}

}  // namespace

FaceSide classify_node(const FaceData& fd, const NodeData& z) {
  if (z.id == fd.fe.u || z.id == fd.fe.v) return FaceSide::kBorder;
  const bool z_anc_u = is_anc(z.pi_l, z.n, fd.pi_l_u);
  const bool z_anc_v = is_anc(z.pi_l, z.n, fd.pi_l_v);
  const bool u_anc_z = is_anc(fd.pi_l_u, fd.n_u, z.pi_l);
  const bool v_anc_z = is_anc(fd.pi_l_v, fd.n_v, z.pi_l);

  if (fd.fe.u_ancestor_of_v) {
    if (!u_anc_z) return FaceSide::kOutside;
    if (z_anc_v) return FaceSide::kBorder;  // on the path u..v
    if (v_anc_z) {
      return fd.inside_v_l.contains(z.pi_l) ? FaceSide::kInside
                                            : FaceSide::kOutside;
    }
    if (is_anc(fd.pi_l_z1, fd.n_z1, z.pi_l)) {
      // In T_{z1} but neither on the path nor below v: Claim 5 interval.
      const bool in = fd.use_left ? z.pi_l < fd.pi_l_v : z.pi_r < fd.pi_r_v;
      return in ? FaceSide::kInside : FaceSide::kOutside;
    }
    // Hanging off u directly.
    return fd.inside_u_l.contains(z.pi_l) ? FaceSide::kInside
                                          : FaceSide::kOutside;
  }

  // u and v unrelated (Definition 2 case 1).
  if (u_anc_z) {
    return fd.inside_u_l.contains(z.pi_l) ? FaceSide::kInside
                                          : FaceSide::kOutside;
  }
  if (v_anc_z) {
    return fd.inside_v_l.contains(z.pi_l) ? FaceSide::kInside
                                          : FaceSide::kOutside;
  }
  if ((z_anc_u || z_anc_v) && z.depth >= fd.depth_w) return FaceSide::kBorder;
  const bool in = z.pi_l > fd.pi_l_u && z.pi_l < fd.pi_l_v;
  return in ? FaceSide::kInside : FaceSide::kOutside;
}

bool dart_points_inside(const RootedSpanningTree& t, const FaceData& fd,
                        DartId d) {
  const EmbeddedGraph& g = t.graph();
  const FundamentalEdge& fe = fd.fe;
  const NodeId x = g.tail(d);
  const int off = t.t_offset(d);
  PLANSEP_CHECK_MSG(classify_node(fd, node_data(t, x)) == FaceSide::kBorder,
                    "tail must be on the border");

  auto offset_towards = [&](NodeId target) {
    // Offset of the tree dart from x to its child on the path towards
    // `target` (x must be a strict ancestor of target).
    return child_offset(t, child_towards(t, x, target));
  };

  if (x == fe.u || x == fe.v) {
    return inside_offsets(t, fe, x).contains(off);  // Claims 1 (ii), (iii), 4
  }
  if (fe.u_ancestor_of_v) {
    // Internal path node: Claim 4 (iii) relative to the next node towards v.
    const int off_next = offset_towards(fe.v);
    return fd.use_left ? off > off_next : off < off_next;
  }
  // u and v unrelated; w = LCA.
  if (x == fe.lca) {
    // Claim 1 (i): between the path children towards v and towards u.
    const int off_u1 = offset_towards(fe.u);
    const int off_v1 = offset_towards(fe.v);
    return off > off_v1 && off < off_u1;
  }
  if (t.is_ancestor(x, fe.u)) {
    return off < offset_towards(fe.u);  // Claim 1 (iv)
  }
  return off > offset_towards(fe.v);  // Claim 1 (v)
}

}  // namespace plansep::faces
