#include "faces/augmentation.hpp"

#include "faces/membership.hpp"
#include "faces/weights.hpp"
#include "util/check.hpp"

namespace plansep::faces {

namespace {

int child_offset(const RootedSpanningTree& t, NodeId c) {
  return t.t_offset(EmbeddedGraph::rev(t.parent_dart(c)));
}

}  // namespace

long long augmented_weight(const RootedSpanningTree& t,
                           const FundamentalEdge& fe, NodeId z) {
  PLANSEP_CHECK_MSG(is_inside_face(t, fe, z), "z must be inside F_e");
  const NodeId u = fe.u;
  const bool use_left = !fe.u_ancestor_of_v || uses_left_order(fe);

  if (!t.is_ancestor(u, z)) {
    // Definition 2 case 1 applied to the virtual edge u–z: all inside
    // children of u stay inside; T_z is entirely inside.
    PLANSEP_CHECK_MSG(!fe.u_ancestor_of_v,
                      "ancestor-type faces lie within T_u");
    const long long pu = p_value_at_u(t, fe);
    const long long pz = t.subtree_size(z) - 1;
    return pu + pz + t.pi_left(z) - (t.pi_left(u) + t.subtree_size(u)) + 1;
  }

  // u is an ancestor of z: Definition 2 case 2 for the virtual edge, with
  // the order matching the sweep orientation of e. The sweep has already
  // passed the sibling subtrees of the path child z2 that come earlier in
  // the sweep order (clockwise-later for π_ℓ, clockwise-earlier for π_r).
  const NodeId z2 = child_towards(t, u, z);
  const int off_z2 = child_offset(t, z2);
  long long pu = 0;
  for (NodeId c : inside_children(t, fe, u)) {
    const int off = child_offset(t, c);
    if (use_left ? off > off_z2 : off < off_z2) pu += t.subtree_size(c);
  }
  const long long pz = t.subtree_size(z) - 1;
  if (use_left) {
    return pz + pu + (t.pi_left(z) - t.pi_left(z2)) -
           (t.depth(z) - t.depth(z2));
  }
  return pz + pu + (t.pi_right(z) - t.pi_right(z2)) -
         (t.depth(z) - t.depth(z2));
}

long long root_sweep_weight(const RootedSpanningTree& t, NodeId x,
                            bool left) {
  const NodeId r = t.root();
  PLANSEP_CHECK(x != r);
  const NodeId z2 = child_towards(t, r, x);
  const int off_z2 = child_offset(t, z2);
  long long p = 0;
  for (NodeId c : t.children(r)) {
    const int off = child_offset(t, c);
    if (left ? off > off_z2 : off < off_z2) p += t.subtree_size(c);
  }
  const long long pz = t.subtree_size(x) - 1;
  if (left) {
    return pz + p + (t.pi_left(x) - t.pi_left(z2)) -
           (t.depth(x) - t.depth(z2));
  }
  return pz + p + (t.pi_right(x) - t.pi_right(z2)) -
         (t.depth(x) - t.depth(z2));
}

}  // namespace plansep::faces
