// Directed coverage of Phase 4 (Lemma 7): the augmentation-leaf path
// (phase 41) and the hidden-edge fallback (phase 45) rarely trigger on
// organic instances because an in-range real face usually exists. Here we
// build adversarial instances that force Phase 4: take a deep random-DFS
// tree on a grid, then DELETE every real fundamental edge whose face is
// in range or whose path is long (deleting non-tree edges changes neither
// the orders nor the weights of the remaining edges, so heavy faces
// survive). The engine must then resolve via the Phase-4 machinery and
// stay balanced.

#include <gtest/gtest.h>

#include <map>

#include "core/plansep.hpp"

namespace plansep::separator {
namespace {

using planar::NodeId;

tree::RootedSpanningTree random_dfs_tree(const planar::EmbeddedGraph& g,
                                         NodeId root, Rng& rng) {
  std::vector<planar::DartId> parent(g.num_nodes(), planar::kNoDart);
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> stack{root};
  seen[root] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    std::vector<planar::DartId> darts(g.rotation(v).begin(),
                                      g.rotation(v).end());
    rng.shuffle(darts);
    for (planar::DartId d : darts) {
      const NodeId w = g.head(d);
      if (seen[w]) continue;
      seen[w] = 1;
      parent[w] = planar::EmbeddedGraph::rev(d);
      stack.push_back(w);
    }
  }
  return tree::RootedSpanningTree(g, root, std::move(parent), 0);
}

TEST(Phase4Coverage, AugmentationAndHiddenFallbackExercised) {
  std::map<int, int> phases;
  int bad = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (int nn : {30, 60, 100}) {
      const auto gg = planar::make_instance(planar::Family::kGrid, nn, seed);
      const auto& g0 = gg.graph;
      Rng rng(seed * 977);
      const NodeId root = static_cast<NodeId>(rng.next_below(g0.num_nodes()));
      const auto t0 = random_dfs_tree(g0, root, rng);
      const long long n = t0.size();

      // Prune in-range / long-path fundamental edges so only heavy and
      // light faces remain.
      std::vector<char> drop(g0.num_edges(), 0);
      bool any_heavy = false;
      for (planar::EdgeId e : faces::real_fundamental_edges(t0)) {
        const auto fe = faces::analyze_fundamental_edge(t0, e);
        const long long w =
            faces::face_weight(tree::NodeWeights(t0), faces::face_data(t0, fe));
        const long long pl = static_cast<long long>(t0.path(fe.u, fe.v).size());
        if ((3 * w >= n && 3 * w <= 2 * n) || 3 * pl >= n) drop[e] = 1;
        if (3 * w > 2 * n) any_heavy = true;
      }
      if (!any_heavy) continue;

      std::vector<std::vector<NodeId>> rot(g0.num_nodes());
      for (NodeId v = 0; v < g0.num_nodes(); ++v) {
        for (planar::DartId d : g0.rotation(v)) {
          if (!drop[planar::EmbeddedGraph::edge_of(d)]) {
            rot[v].push_back(g0.head(d));
          }
        }
      }
      const auto g = planar::EmbeddedGraph::from_rotations(rot);
      std::vector<planar::DartId> parent(g.num_nodes(), planar::kNoDart);
      for (NodeId v : t0.nodes()) {
        if (v != root) parent[v] = g.find_dart(v, t0.parent(v));
      }
      shortcuts::PartwiseEngine engine(g, root);
      std::vector<int> part(g.num_nodes(), 0);
      sub::PartSet ps =
          sub::part_set_from_forest(g, part, 1, parent, {root}, engine);
      SeparatorEngine se(engine);
      const SeparatorResult res = se.compute(ps);
      ++phases[res.parts[0].phase];
      const SeparatorCheck chk = check_separator(ps, 0, res.parts[0]);
      if (!chk.ok()) ++bad;
      EXPECT_TRUE(chk.ok()) << "seed=" << seed << " n=" << nn
                            << " phase=" << res.parts[0].phase
                            << " balance=" << chk.balance;
      EXPECT_EQ(res.stats.phase_counts[7], 0);
    }
  }
  EXPECT_EQ(bad, 0);
  // The sweep must actually exercise both Phase-4.1 outcomes.
  EXPECT_GT(phases[41], 0) << "no augmentation-leaf separator exercised";
  EXPECT_GT(phases[45], 0) << "no hidden-edge fallback exercised";
}

}  // namespace
}  // namespace plansep::separator
