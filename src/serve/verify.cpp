#include "serve/verify.hpp"

#include <vector>

namespace plansep::serve {

using planar::EmbeddedGraph;
using planar::NodeId;

namespace {

/// True iff `ids` is non-empty, every id names a node of g and none
/// repeats.
bool distinct_nodes(const EmbeddedGraph& g, const std::vector<NodeId>& ids) {
  const NodeId n = g.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const NodeId v : ids) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return !ids.empty();
}

}  // namespace

SeparatorVerify verify_separator_artifact(const EmbeddedGraph& g,
                                          const io::SeparatorArtifact& s) {
  SeparatorVerify out;
  const auto& path = s.part.path;
  out.nodes_valid = distinct_nodes(g, path);
  if (!out.nodes_valid) return out;
  out.path_connected = true;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!g.has_edge(path[i - 1], path[i])) {
      out.path_connected = false;
      break;
    }
  }
  out.balance = sub::balance_after_removal(g, {}, path);
  return out;
}

dfs::DfsCheck verify_dfs_artifact(const EmbeddedGraph& g,
                                  const io::DfsArtifact& d) {
  return dfs::check_dfs_tree(g, d.root, d.parent, d.depth);
}

bool verify_level_separator_artifact(const EmbeddedGraph& g,
                                     const io::LevelSeparatorArtifact& l) {
  const baselines::LevelSeparatorResult& r = l.result;
  if (!r.found) return r.separator.empty();
  if (!distinct_nodes(g, r.separator) ||
      r.separator.size() >= static_cast<std::size_t>(g.num_nodes())) {
    return false;
  }
  const sub::Balance b = sub::balance_after_removal(g, {}, r.separator);
  return b.balanced() && b.fraction() == r.balance;
}

}  // namespace plansep::serve
