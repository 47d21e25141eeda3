#pragma once

// BFS-level separators — the "levels" half of Lipton–Tarjan's classic
// construction, as a size/quality comparator for cycle separators.
//
// A BFS level whose removal leaves balanced components is a separator;
// Lipton–Tarjan combine two thin levels around the median with a
// fundamental-cycle step on a triangulation to force O(√n) size. This
// baseline implements the level search (single best level, then thin
// level pairs around the median); when no level-based separator balances
// — typical for low-diameter graphs, where single levels are huge — it
// reports failure. The cycle step it lacks is exactly what the paper's
// Theorem 1 machinery provides, which is the comparison bench_lt draws.

#include "congest/bfs_tree.hpp"
#include "planar/embedded_graph.hpp"

namespace plansep::baselines {

struct LevelSeparatorResult {
  bool found = false;
  std::vector<planar::NodeId> separator;
  double balance = 0;  // max remaining component / n (valid when found)
  int levels_used = 0; // 1 or 2
};

/// Best balanced BFS-level separator from `root` (smallest separator among
/// all balanced single levels and median-straddling level pairs).
LevelSeparatorResult bfs_level_separator(const planar::EmbeddedGraph& g,
                                         planar::NodeId root);

/// Same search over a precomputed BFS tree (e.g. the job stages' shared
/// spanning-tree artifact): the level structure is exactly bfs.depth, so
/// the result is byte-identical to the root-taking overload.
LevelSeparatorResult bfs_level_separator(const planar::EmbeddedGraph& g,
                                         const congest::BfsResult& bfs);

}  // namespace plansep::baselines
