#include "baselines/level_separator.hpp"

#include <algorithm>

#include "congest/bfs_tree.hpp"
#include "subroutines/components.hpp"
#include "util/check.hpp"

namespace plansep::baselines {

namespace {

using planar::NodeId;

double balance_of(const planar::EmbeddedGraph& g,
                  const std::vector<char>& in_sep) {
  const sub::Components comps = sub::connected_components(
      g, [&](NodeId v) { return !in_sep[static_cast<std::size_t>(v)]; });
  int max_size = 0;
  for (int s : comps.size) max_size = std::max(max_size, s);
  return static_cast<double>(max_size) / g.num_nodes();
}

}  // namespace

LevelSeparatorResult bfs_level_separator(const planar::EmbeddedGraph& g,
                                         NodeId root) {
  return bfs_level_separator(g, congest::distributed_bfs(g, root));
}

LevelSeparatorResult bfs_level_separator(const planar::EmbeddedGraph& g,
                                         const congest::BfsResult& bfs) {
  const int h = bfs.height;
  std::vector<std::vector<NodeId>> level(static_cast<std::size_t>(h + 1));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int d = bfs.depth[static_cast<std::size_t>(v)];
    // Injected faults can break the wave before it reaches every node.
    PLANSEP_CHECK_MSG(d >= 0 && d <= h, "BFS wave did not reach every node");
    level[static_cast<std::size_t>(d)].push_back(v);
  }

  LevelSeparatorResult best;
  auto consider = [&](const std::vector<int>& which) {
    std::vector<char> in_sep(static_cast<std::size_t>(g.num_nodes()), 0);
    std::size_t size = 0;
    for (int l : which) {
      for (NodeId v : level[static_cast<std::size_t>(l)]) {
        in_sep[static_cast<std::size_t>(v)] = 1;
        ++size;
      }
    }
    if (size == 0 ||
        size == static_cast<std::size_t>(g.num_nodes())) {
      return;
    }
    const double bal = balance_of(g, in_sep);
    if (3 * bal > 2.0) return;  // not balanced
    if (!best.found || size < best.separator.size()) {
      best.found = true;
      best.separator.clear();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (in_sep[static_cast<std::size_t>(v)]) best.separator.push_back(v);
      }
      best.balance = bal;
      best.levels_used = static_cast<int>(which.size());
    }
  };

  // All single levels.
  for (int l = 0; l <= h; ++l) consider({l});
  // Median-straddling thin pairs (the Lipton–Tarjan shape): the median
  // level m, paired with every level below/above.
  int m = 0;
  long long cum = 0;
  for (int l = 0; l <= h; ++l) {
    cum += static_cast<long long>(level[static_cast<std::size_t>(l)].size());
    if (2 * cum >= g.num_nodes()) {
      m = l;
      break;
    }
  }
  for (int lo = std::max(0, m - 3); lo < m; ++lo) {
    for (int hi = m; hi <= std::min(h, m + 3); ++hi) {
      if (lo != hi) consider({lo, hi});
    }
  }
  return best;
}

}  // namespace plansep::baselines
