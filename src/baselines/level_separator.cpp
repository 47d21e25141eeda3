#include "baselines/level_separator.hpp"

#include <algorithm>

#include "congest/bfs_tree.hpp"
#include "subroutines/components.hpp"
#include "util/check.hpp"

namespace plansep::baselines {

namespace {

using planar::NodeId;

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
    std::vector<NodeId> sep;
    for (int l : which) {
      const auto& nodes = level[static_cast<std::size_t>(l)];
      sep.insert(sep.end(), nodes.begin(), nodes.end());
    }
    if (sep.empty() || sep.size() == static_cast<std::size_t>(g.num_nodes())) {
      return;
    }
    const sub::Balance bal = sub::balance_after_removal(g, {}, sep);
    if (!bal.balanced()) return;
    if (!best.found || sep.size() < best.separator.size()) {
      best.found = true;
      std::sort(sep.begin(), sep.end());
      best.separator = std::move(sep);
      best.balance = bal.fraction();
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
