#include "faces/fundamental.hpp"

#include "util/check.hpp"

namespace plansep::faces {

NodeId child_towards(const RootedSpanningTree& t, NodeId a, NodeId d) {
  PLANSEP_CHECK(t.is_ancestor(a, d) && a != d);
  for (NodeId c : t.children(a)) {
    if (t.is_ancestor(c, d)) return c;
  }
  PLANSEP_CHECK_MSG(false, "no child towards descendant");
  return planar::kNoNode;
}

FundamentalEdge analyze_fundamental_edge(const RootedSpanningTree& t,
                                         EdgeId e) {
  const auto& g = t.graph();
  PLANSEP_CHECK_MSG(!t.is_tree_edge(e), "not a fundamental edge");
  FundamentalEdge fe;
  fe.edge = e;
  NodeId a = g.edge_u(e);
  NodeId b = g.edge_v(e);
  PLANSEP_CHECK_MSG(t.contains(a) && t.contains(b),
                    "fundamental edge must join two tree members");
  if (t.pi_left(a) > t.pi_left(b)) std::swap(a, b);
  fe.u = a;
  fe.v = b;
  fe.u_ancestor_of_v = t.is_ancestor(a, b);
  if (fe.u_ancestor_of_v) {
    fe.z = child_towards(t, a, b);
    const DartId du_v = g.dart_from(e, a);
    const DartId du_z = t.parent_dart(fe.z) == planar::kNoDart
                            ? planar::kNoDart
                            : EmbeddedGraph::rev(t.parent_dart(fe.z));
    PLANSEP_CHECK(du_z != planar::kNoDart);
    fe.left_oriented = t.t_offset(du_v) < t.t_offset(du_z);
    fe.lca = a;
  } else {
    fe.lca = t.lca(a, b);
  }
  return fe;
}

}  // namespace plansep::faces
