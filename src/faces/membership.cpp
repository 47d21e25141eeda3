#include "faces/membership.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace plansep::faces {

namespace {

int child_offset(const RootedSpanningTree& t, NodeId c) {
  return t.t_offset(EmbeddedGraph::rev(t.parent_dart(c)));
}

PiInterval interval_of_children(const RootedSpanningTree& t,
                                const std::vector<NodeId>& children,
                                bool left) {
  PiInterval out;  // empty
  int total = 0;
  for (NodeId c : children) {
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

std::vector<NodeId> inside_children(const RootedSpanningTree& t,
                                    const FundamentalEdge& fe, NodeId x) {
  PLANSEP_CHECK(x == fe.u || x == fe.v);
  const int off_e = t.t_offset(t.graph().dart_from(fe.edge, x));
  std::vector<NodeId> out;
  if (x == fe.u) {
    if (!fe.u_ancestor_of_v) {
      for (NodeId c : t.children(fe.u)) {
        if (child_offset(t, c) < off_e) out.push_back(c);
      }
    } else {
      const int off_z = child_offset(t, fe.z);
      const int lo = std::min(off_z, off_e);
      const int hi = std::max(off_z, off_e);
      for (NodeId c : t.children(fe.u)) {
        const int off = child_offset(t, c);
        if (off > lo && off < hi) out.push_back(c);
      }
    }
  } else {
    const bool inside_above = !fe.u_ancestor_of_v || !fe.left_oriented;
    for (NodeId c : t.children(fe.v)) {
      const int off = child_offset(t, c);
      if (inside_above ? off > off_e : off < off_e) out.push_back(c);
    }
  }
  return out;
}

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
  const auto cu = inside_children(t, fe, fe.u);
  const auto cv = inside_children(t, fe, fe.v);
  fd.inside_u_l = interval_of_children(t, cu, /*left=*/true);
  fd.inside_u_r = interval_of_children(t, cu, /*left=*/false);
  fd.inside_v_l = interval_of_children(t, cv, /*left=*/true);
  fd.inside_v_r = interval_of_children(t, cv, /*left=*/false);
  fd.use_left = !fe.u_ancestor_of_v || !fe.left_oriented;
  // Data about the LCA and the path child (needed by the local rule).
  if (fe.u_ancestor_of_v) {
    fd.depth_w = fd.depth_u;
    fd.pi_l_z1 = t.pi_left(fe.z);
    fd.n_z1 = t.subtree_size(fe.z);
  } else {
    fd.depth_w = t.depth(t.lca(fe.u, fe.v));
    fd.pi_l_z1 = 0;
    fd.n_z1 = 0;
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

bool dart_points_inside(const RootedSpanningTree& t, const FundamentalEdge& fe,
                        DartId d) {
  const EmbeddedGraph& g = t.graph();
  const NodeId x = g.tail(d);
  const int off = t.t_offset(d);
  const bool use_left = !fe.u_ancestor_of_v || !fe.left_oriented;
  PLANSEP_CHECK_MSG(is_on_border(t, fe, x), "tail must be on the border");

  auto offset_towards = [&](NodeId target) {
    // Offset of the tree dart from x to its child on the path towards
    // `target` (x must be a strict ancestor of target).
    const NodeId c = child_towards(t, x, target);
    return child_offset(t, c);
  };

  if (fe.u_ancestor_of_v) {
    const int off_e_u = t.t_offset(g.dart_from(fe.edge, fe.u));
    if (x == fe.u) {
      const int off_z = child_offset(t, fe.z);
      const int lo = std::min(off_z, off_e_u);
      const int hi = std::max(off_z, off_e_u);
      return off > lo && off < hi;
    }
    if (x == fe.v) {
      const int off_e_v = t.t_offset(g.dart_from(fe.edge, fe.v));
      return use_left ? off > off_e_v : off < off_e_v;
    }
    // Internal path node: Claim 4 (iii) relative to the next node towards v.
    const int off_next = offset_towards(fe.v);
    return use_left ? off > off_next : off < off_next;
  }

  // u and v unrelated; w = LCA.
  const NodeId w = t.lca(fe.u, fe.v);
  if (x == fe.u) {
    const int off_e_u = t.t_offset(g.dart_from(fe.edge, fe.u));
    return off < off_e_u;  // Claim 1 (ii)
  }
  if (x == fe.v) {
    const int off_e_v = t.t_offset(g.dart_from(fe.edge, fe.v));
    return off > off_e_v;  // Claim 1 (iii)
  }
  if (x == w) {
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

bool is_inside_face(const RootedSpanningTree& t, const FundamentalEdge& fe,
                    NodeId z) {
  return classify_node(face_data(t, fe), node_data(t, z)) == FaceSide::kInside;
}

bool is_on_border(const RootedSpanningTree& t, const FundamentalEdge& fe,
                  NodeId z) {
  return classify_node(face_data(t, fe), node_data(t, z)) == FaceSide::kBorder;
}

}  // namespace plansep::faces
