#include "separator/validate.hpp"

#include <algorithm>

#include "subroutines/components.hpp"

namespace plansep::separator {

SeparatorCheck check_separator(const sub::PartSet& ps, int p,
                               const PartSeparator& sep) {
  SeparatorCheck out;
  const auto& t = ps.tree_of_part(p);
  const auto& g = *ps.g;

  // Structural: the marked set equals the tree path between its endpoints.
  if (!sep.path.empty()) {
    std::vector<NodeId> expect = t.path(sep.endpoint_a, sep.endpoint_b);
    std::vector<NodeId> a = expect;
    std::vector<NodeId> b = sep.path;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    out.is_tree_path = (a == b);
    for (NodeId v : sep.path) {
      if (ps.part_of(v) != p) out.is_tree_path = false;
    }
    out.simple_path =
        std::adjacent_find(b.begin(), b.end()) == b.end();
    // Cycle closure: when a real fundamental edge closes the cycle, it must
    // join the path's endpoints; otherwise the closure is a virtual
    // (embedding-compatible) edge or the separator is a bare tree path.
    if (sep.closing_edge == planar::kNoEdge) {
      out.closure_ok = true;
    } else {
      const NodeId u = g.edge_u(sep.closing_edge);
      const NodeId v = g.edge_v(sep.closing_edge);
      out.closure_ok = (u == sep.endpoint_a && v == sep.endpoint_b) ||
                       (u == sep.endpoint_b && v == sep.endpoint_a);
    }
  }

  const sub::Balance b = sub::balance_after_removal(g, t.nodes(), sep.path);
  out.components = b.components;
  out.balance = b.fraction();
  out.balanced = b.balanced();
  return out;
}

}  // namespace plansep::separator
