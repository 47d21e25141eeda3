// The part-wise aggregation engine's pricing (src/shortcuts/partwise.*):
// the lower bound that lets aggregate() skip the global-tree schedule
// simulation, checked against the full simulation on every generator
// family and on the partition shapes the algorithms aggregate over; and
// the structural checks on an adopted (decoded, untrusted) BFS tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "planar/generators.hpp"
#include "shortcuts/partwise.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace plansep {
namespace {

using planar::NodeId;

// Relabels `label` (-1 = absent) so that each part is one connected
// component of the nodes sharing a label, numbered by first node.
std::vector<int> components_of(const planar::EmbeddedGraph& g,
                               const std::vector<int>& label) {
  std::vector<int> part(label.size(), -1);
  int next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] < 0 || part[s] >= 0) continue;
    const int id = next++;
    std::vector<NodeId> stack{s};
    part[s] = id;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (planar::DartId d : g.rotation(v)) {
        const NodeId w = g.head(d);
        if (part[w] < 0 && label[w] == label[v]) {
          part[w] = id;
          stack.push_back(w);
        }
      }
    }
  }
  return part;
}

// Grows `k` regions from random seeds by one multi-source BFS; each node
// joins the region that reaches it first, so every region is connected.
std::vector<int> random_regions(const planar::EmbeddedGraph& g, int k,
                                Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<int> part(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> queue;
  for (int i = 0; i < k; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(n));
    if (part[s] >= 0) continue;
    part[s] = i;
    queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (planar::DartId d : g.rotation(v)) {
      const NodeId w = g.head(d);
      if (part[w] >= 0) continue;
      part[w] = part[v];
      queue.push_back(w);
    }
  }
  return part;
}

// True iff v lies in the global tree's subtree below r.
bool in_subtree(const planar::EmbeddedGraph& g, const congest::BfsResult& bfs,
                NodeId v, NodeId r) {
  while (v != r && v != bfs.root) {
    v = g.head(bfs.parent_dart[v]);
  }
  return v == r;
}

// The partition shapes the algorithms aggregate over.
std::vector<std::vector<int>> partition_shapes(const planar::EmbeddedGraph& g,
                                               const congest::BfsResult& bfs,
                                               Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<int>> shapes;
  // Random connected regions, then the same with ~20% of nodes absent.
  const int k = 1 + static_cast<int>(rng.next_below(std::min(n, 12)));
  std::vector<int> regions = random_regions(g, k, rng);
  shapes.push_back(regions);
  for (NodeId v = 0; v < n; ++v) {
    if (rng.next_bool(0.2)) regions[v] = -1;
  }
  shapes.push_back(components_of(g, regions));
  // Singletons.
  std::vector<int> singletons(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) singletons[v] = v;
  shapes.push_back(singletons);
  // Depth bands of width 1..3, refined to connected components.
  const int width = 1 + static_cast<int>(rng.next_below(3));
  std::vector<int> bands(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) bands[v] = bfs.depth[v] / width;
  shapes.push_back(components_of(g, bands));
  // The components left after removing a rooted subtree (a DFS phase).
  const NodeId r = static_cast<NodeId>(rng.next_below(n));
  std::vector<int> rest(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (in_subtree(g, bfs, v, r)) rest[v] = -1;
  }
  shapes.push_back(components_of(g, rest));
  // Spanning-tree fragments (Lemma 11): cut about a quarter of the global
  // tree's edges; each fragment is labelled by its topmost node.
  std::vector<char> cut(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) cut[v] = v == bfs.root || rng.next_bool(0.25);
  std::vector<int> fragments(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    NodeId top = v;
    while (!cut[top]) top = g.head(bfs.parent_dart[top]);
    fragments[v] = top;
  }
  shapes.push_back(fragments);
  // Nobody participates.
  shapes.push_back(std::vector<int>(static_cast<std::size_t>(n), -1));
  return shapes;
}

// LB = max(D + 2, P + 1) + D over the participating nodes; -1 if none.
long long schedule_lower_bound(const congest::BfsResult& bfs,
                               const std::vector<int>& part) {
  int deepest = -1;
  std::vector<int> ids;
  for (std::size_t v = 0; v < part.size(); ++v) {
    if (part[v] < 0) continue;
    deepest = std::max(deepest, bfs.depth[v]);
    ids.push_back(part[v]);
  }
  if (deepest < 0) return -1;
  std::sort(ids.begin(), ids.end());
  const long long parts = std::unique(ids.begin(), ids.end()) - ids.begin();
  return std::max<long long>(deepest + 2, parts + 1) + deepest;
}

TEST(PartwiseBound, NeverExceedsTheGlobalScheduleAndKeepsTheMin) {
  int checked = 0;
  int exact = 0;
  for (const planar::Family f : planar::all_families()) {
    for (const int n : {5, 30, 200, 1500}) {
      for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
        const auto gg = planar::make_instance(f, n, seed);
        const planar::EmbeddedGraph& g = gg.graph;
        shortcuts::PartwiseEngine engine(g, gg.root_hint);
        const congest::BfsResult& bfs = engine.global_tree();
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
        std::vector<std::int64_t> value(static_cast<std::size_t>(g.num_nodes()));
        for (NodeId v = 0; v < g.num_nodes(); ++v) value[v] = (7 * v) % 23;
        for (const auto& part : partition_shapes(g, bfs, rng)) {
          const long long global = engine.global_schedule_rounds(part);
          const long long intra = engine.intra_schedule_rounds(part);
          const long long lb = schedule_lower_bound(bfs, part);
          if (lb >= 0) {
            ASSERT_GE(global, lb) << planar::family_name(f) << " n=" << n
                                  << " seed=" << seed;
            exact += global == lb;
          }
          const auto res = engine.aggregate(part, value, shortcuts::AggOp::kSum);
          ASSERT_EQ(res.cost.measured, std::min(intra, global))
              << planar::family_name(f) << " n=" << n << " seed=" << seed;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 10 * 4 * 6 * 7);
  // The bound is attained on some partitions: it cannot be raised.
  EXPECT_GT(exact, 0);
}

// --------------------------------------------- adopted spanning trees ----

congest::BfsResult grid_tree() {
  const auto gg = planar::grid(10, 10);
  return congest::distributed_bfs(gg.graph, 0);
}

TEST(PartwiseAdopt, RejectsADepthThatSkipsALevel) {
  const auto gg = planar::grid(10, 10);
  congest::BfsResult bfs = grid_tree();
  bfs.depth[99] = 1;
  EXPECT_THROW(shortcuts::PartwiseEngine(gg.graph, bfs), CheckError);
}

TEST(PartwiseAdopt, RejectsAParentDartThatLeavesAnotherNode) {
  const auto gg = planar::grid(10, 10);
  congest::BfsResult bfs = grid_tree();
  bfs.parent_dart[55] = gg.graph.rotation(12).front();
  EXPECT_THROW(shortcuts::PartwiseEngine(gg.graph, bfs), CheckError);
}

TEST(PartwiseAdopt, RejectsARootWithAParentOrAWrongHeight) {
  const auto gg = planar::grid(10, 10);
  congest::BfsResult with_parent = grid_tree();
  with_parent.parent_dart[0] = gg.graph.rotation(0).front();
  EXPECT_THROW(shortcuts::PartwiseEngine(gg.graph, with_parent), CheckError);
  congest::BfsResult wrong_height = grid_tree();
  wrong_height.height = 17;
  EXPECT_THROW(shortcuts::PartwiseEngine(gg.graph, wrong_height), CheckError);
}

}  // namespace
}  // namespace plansep
