#include "faces/weights.hpp"

#include "util/check.hpp"

namespace plansep::faces {

bool uses_left_order(const FundamentalEdge& fe) {
  // See the convention note in the header: the π_ℓ formula applies exactly
  // when the edge leaves u clockwise-after the path child z (Lemma 4's
  // t_u(v) > t_u(z) case).
  PLANSEP_CHECK(fe.u_ancestor_of_v);
  return !fe.left_oriented;
}

long long ancestor_sweep(const NodeWeights& w, NodeId z, NodeId x,
                         bool left) {
  const RootedSpanningTree& t = w.tree();
  const int pi_z = left ? t.pi_left(z) : t.pi_right(z);
  const int pi_x = left ? t.pi_left(x) : t.pi_right(x);
  return w.interval(pi_z, pi_x - 1, left) -
         ((w.root_path(x) - w.of(x)) - (w.root_path(z) - w.of(z)));
}

long long face_weight(const NodeWeights& w, const FaceData& fd) {
  const RootedSpanningTree& t = w.tree();
  const FundamentalEdge& fe = fd.fe;
  const long long p =
      w.interval(fd.inside_u_l.lo, fd.inside_u_l.hi, /*left=*/true) +
      w.interval(fd.inside_v_l.lo, fd.inside_v_l.hi, /*left=*/true);
  if (!fe.u_ancestor_of_v) {
    // Definition 2 case 1: the π_ℓ positions from just after T_u up to v.
    return p + w.interval(t.pi_left(fe.u) + t.subtree_size(fe.u),
                          t.pi_left(fe.v), /*left=*/true);
  }
  // Definition 2 case 2.1 (π_ℓ) or 2.2 (π_r).
  return p + ancestor_sweep(w, fe.z, fe.v, uses_left_order(fe));
}

}  // namespace plansep::faces
