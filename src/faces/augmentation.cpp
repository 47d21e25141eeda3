#include "faces/augmentation.hpp"

#include <limits>

#include "faces/membership.hpp"
#include "util/check.hpp"

namespace plansep::faces {

namespace {

/// The subtree weight of the children of `x` with offsets in `among` that
/// the sweep has passed before the path child z2: the clockwise-later ones
/// for π_ℓ, the clockwise-earlier ones for π_r.
long long swept_children(const NodeWeights& w, NodeId x, OffsetRange among,
                         NodeId z2, bool left) {
  const int off_z2 = child_offset(w.tree(), z2);
  long long p = 0;
  for (NodeId c : w.tree().children(x)) {
    const int off = child_offset(w.tree(), c);
    if (among.contains(off) && (left ? off > off_z2 : off < off_z2)) {
      p += w.subtree(c);
    }
  }
  return p;
}

}  // namespace

long long augmented_weight(const NodeWeights& w, const FaceData& fd,
                           NodeId z) {
  const RootedSpanningTree& t = w.tree();
  const FundamentalEdge& fe = fd.fe;
  PLANSEP_CHECK_MSG(classify_node(fd, node_data(t, z)) == FaceSide::kInside,
                    "z must be inside F_e");
  const NodeId u = fe.u;
  const long long pz = w.subtree(z) - w.of(z);

  if (!t.is_ancestor(u, z)) {
    // Definition 2 case 1 applied to the virtual edge u–z: all inside
    // children of u (p_{F_e}(u), the weight of fd's inside interval at u)
    // stay inside; T_z is entirely inside.
    PLANSEP_CHECK_MSG(!fe.u_ancestor_of_v,
                      "ancestor-type faces lie within T_u");
    return w.interval(fd.inside_u_l.lo, fd.inside_u_l.hi, /*left=*/true) +
           pz +
           w.interval(t.pi_left(u) + t.subtree_size(u), t.pi_left(z),
                      /*left=*/true);
  }

  // u is an ancestor of z: Definition 2 case 2 for the virtual edge, with
  // the order matching the sweep orientation of e. The sweep has already
  // passed the inside children of u before the path child z2.
  const bool use_left = !fe.u_ancestor_of_v || uses_left_order(fe);
  const NodeId z2 = child_towards(t, u, z);
  return pz + swept_children(w, u, inside_offsets(t, fe, u), z2, use_left) +
         ancestor_sweep(w, z2, z, use_left);
}

long long root_sweep_weight(const NodeWeights& w, NodeId x, bool left) {
  const RootedSpanningTree& t = w.tree();
  PLANSEP_CHECK(x != t.root());
  const NodeId z2 = child_towards(t, t.root(), x);
  const OffsetRange every{0, std::numeric_limits<int>::max()};
  return (w.subtree(x) - w.of(x)) +
         swept_children(w, t.root(), every, z2, left) +
         ancestor_sweep(w, z2, x, left);
}

}  // namespace plansep::faces
