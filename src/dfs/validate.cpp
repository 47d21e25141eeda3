#include "dfs/validate.hpp"

#include <vector>

namespace plansep::dfs {

std::string DfsCheck::summary() const {
  if (ok()) return "ok";
  std::string s;
  auto add = [&](const char* what) {
    if (!s.empty()) s += ", ";
    s += what;
  };
  if (!spanning) add("not spanning");
  if (!depths_consistent) add("inconsistent depths");
  if (!dfs_property) {
    add("dfs_property (");
    s += std::to_string(violating_edges) + " violating edges)";
  }
  return s;
}

DfsCheck check_dfs_tree(const planar::EmbeddedGraph& g, NodeId root,
                        std::span<const NodeId> parent,
                        std::span<const int> depth) {
  DfsCheck out;
  const NodeId n = g.num_nodes();
  if (parent.size() != static_cast<std::size_t>(n) ||
      depth.size() != static_cast<std::size_t>(n) || root < 0 || root >= n) {
    return out;  // wrong shape: nothing holds
  }
  const auto at = [](auto arr, NodeId v) {
    return arr[static_cast<std::size_t>(v)];
  };

  out.spanning = at(parent, root) == planar::kNoNode;
  out.depths_consistent = at(depth, root) == 0;
  std::vector<std::vector<NodeId>> children(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const NodeId p = at(parent, v);
    if (p < 0 || p >= n || !g.has_edge(p, v)) {
      out.spanning = false;
      continue;
    }
    if (at(depth, v) != static_cast<long long>(at(depth, p)) + 1) {
      out.depths_consistent = false;
    }
    children[static_cast<std::size_t>(p)].push_back(v);
  }
  if (!out.spanning) return out;

  // Euler intervals for ancestor tests.
  std::vector<int> tin(static_cast<std::size_t>(n), -1);
  std::vector<int> tout(static_cast<std::size_t>(n), -1);
  int clock = 0;
  std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
  tin[static_cast<std::size_t>(root)] = clock++;
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    if (idx < children[static_cast<std::size_t>(v)].size()) {
      const NodeId c = children[static_cast<std::size_t>(v)][idx++];
      tin[static_cast<std::size_t>(c)] = clock++;
      stack.emplace_back(c, 0);
    } else {
      tout[static_cast<std::size_t>(v)] = clock++;
      stack.pop_back();
    }
  }
  auto ancestor = [&](NodeId a, NodeId d) {
    return tin[static_cast<std::size_t>(a)] <= tin[static_cast<std::size_t>(d)] &&
           tout[static_cast<std::size_t>(d)] <= tout[static_cast<std::size_t>(a)];
  };

  out.dfs_property = true;
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId a = g.edge_u(e);
    const NodeId b = g.edge_v(e);
    if (!ancestor(a, b) && !ancestor(b, a)) {
      out.dfs_property = false;
      ++out.violating_edges;
    }
  }
  return out;
}

}  // namespace plansep::dfs
