// Tests for the paper's named distributed problems (Lemmas 10, 13, 14,
// 15, 16, 19) over multi-part instances: values against brute-force
// references, costs accounted.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "faces/hidden.hpp"
#include "faces/weight_oracle.hpp"
#include "planar/generators.hpp"
#include "separator/engine.hpp"
#include "subroutines/components.hpp"
#include "subroutines/part_context.hpp"
#include "subroutines/problems.hpp"
#include "util/rng.hpp"

namespace plansep::sub {
namespace {

using planar::Family;
using planar::GeneratedGraph;
using planar::NodeId;

struct Fixture {
  GeneratedGraph gg;
  std::unique_ptr<shortcuts::PartwiseEngine> engine;
  PartSet ps;
};

/// Two-part instance: a BFS ball around the root vs the rest (refined to
/// components).
Fixture make_fixture(Family f, int n, std::uint64_t seed) {
  Fixture fx{planar::make_instance(f, n, seed), nullptr, {}};
  const auto& g = fx.gg.graph;
  fx.engine =
      std::make_unique<shortcuts::PartwiseEngine>(g, fx.gg.root_hint);
  const auto& bfs = fx.engine->global_tree();
  const int radius = std::max(1, bfs.height / 2);
  const sub::Components out_comps = sub::connected_components(
      g, [&](NodeId v) { return bfs.depth[v] > radius; });
  std::vector<int> part(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    part[v] = bfs.depth[v] <= radius ? 0 : 1 + out_comps.label[v];
  }
  fx.ps = build_part_set(g, part, out_comps.count + 1, *fx.engine);
  return fx;
}

TEST(Problems, MinMaxRangeSum) {
  Fixture fx = make_fixture(Family::kTriangulation, 80, 3);
  const auto& g = fx.gg.graph;
  std::vector<std::int64_t> x(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) x[v] = (v * 37) % 101;
  std::vector<char> all(g.num_nodes(), 1);

  const auto mn = min_problem(fx.ps, *fx.engine, x, all);
  const auto mx = max_problem(fx.ps, *fx.engine, x, all);
  const auto sz = sum_subset_problem(fx.ps, *fx.engine);
  for (int p = 0; p < fx.ps.num_parts; ++p) {
    std::int64_t ref_min = std::numeric_limits<std::int64_t>::max();
    std::int64_t ref_max = std::numeric_limits<std::int64_t>::min();
    std::int64_t count = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (fx.ps.part_of(v) != p) continue;
      ref_min = std::min(ref_min, x[v]);
      ref_max = std::max(ref_max, x[v]);
      ++count;
    }
    ASSERT_NE(mn.value[p], planar::kNoNode);
    EXPECT_EQ(x[mn.value[p]], ref_min) << p;
    EXPECT_EQ(x[mx.value[p]], ref_max) << p;
    EXPECT_EQ(sz.value[p], count) << p;
  }
  EXPECT_GT(mn.cost.measured, 0);

  const auto rng_hit = range_problem(fx.ps, *fx.engine, x, 40, 60);
  for (int p = 0; p < fx.ps.num_parts; ++p) {
    bool exists = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      exists |= (fx.ps.part_of(v) == p && x[v] >= 40 && x[v] <= 60);
    }
    if (exists) {
      ASSERT_NE(rng_hit.value[p], planar::kNoNode) << p;
      EXPECT_GE(x[rng_hit.value[p]], 40);
      EXPECT_LE(x[rng_hit.value[p]], 60);
    } else {
      EXPECT_EQ(rng_hit.value[p], planar::kNoNode) << p;
    }
  }
}

TEST(Problems, AncestorDescendantMarkPathLca) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture fx = make_fixture(Family::kRandomPlanar, 70, seed);
    const auto& g = fx.gg.graph;
    Rng rng(seed * 13);
    // Pick per-part endpoints.
    std::vector<NodeId> u_of(fx.ps.num_parts, planar::kNoNode);
    std::vector<NodeId> w_of(fx.ps.num_parts, planar::kNoNode);
    std::vector<std::vector<NodeId>> members(fx.ps.num_parts);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (fx.ps.part_of(v) >= 0) members[fx.ps.part_of(v)].push_back(v);
    }
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      u_of[p] = members[p][rng.next_below(members[p].size())];
      w_of[p] = members[p][rng.next_below(members[p].size())];
    }
    const auto anc = ancestor_problem(fx.ps, *fx.engine, u_of);
    const auto desc = descendant_problem(fx.ps, *fx.engine, u_of);
    const auto mark = mark_path_problem(fx.ps, *fx.engine, u_of, w_of);
    const auto lca = lca_problem(fx.ps, *fx.engine, u_of, w_of);
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      const auto& t = fx.ps.tree_of_part(p);
      EXPECT_EQ(lca.value[p], t.lca(u_of[p], w_of[p])) << "seed=" << seed;
      const auto path = t.path(u_of[p], w_of[p]);
      std::vector<char> on_path(g.num_nodes(), 0);
      for (NodeId v : path) on_path[v] = 1;
      for (NodeId v : members[p]) {
        EXPECT_EQ(anc.flag[v], t.is_ancestor(v, u_of[p])) << v;
        EXPECT_EQ(desc.flag[v], t.is_ancestor(u_of[p], v)) << v;
        EXPECT_EQ(mark.flag[v], on_path[v])
            << "seed=" << seed << " p=" << p << " v=" << v;
      }
    }
  }
}

TEST(Problems, DetectFaceMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture fx = make_fixture(Family::kGridDiagonals, 64, seed);
    std::vector<faces::FundamentalEdge> fe_of(fx.ps.num_parts);
    bool any = false;
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      const auto& t = fx.ps.tree_of_part(p);
      const auto fund = faces::real_fundamental_edges(t);
      if (fund.empty()) continue;
      fe_of[p] = faces::analyze_fundamental_edge(t, fund.front());
      any = true;
    }
    if (!any) continue;
    const auto res = detect_face_problem(fx.ps, *fx.engine, fe_of);
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      if (fe_of[p].edge == planar::kNoEdge) continue;
      const auto& t = fx.ps.tree_of_part(p);
      const faces::FaceOracle oracle(t);
      const auto region = oracle.real_face(fe_of[p]);
      std::vector<char> expect(fx.gg.graph.num_nodes(), 0);
      for (NodeId b : region.border) expect[b] = 1;
      for (NodeId v : t.nodes()) {
        if (region.inside[v]) expect[v] = 1;
        EXPECT_EQ(res.flag[v], expect[v]) << "seed=" << seed << " v=" << v;
      }
    }
  }
}

TEST(Problems, ReRootPreservesEdgesAndMovesRoot) {
  Fixture fx = make_fixture(Family::kTriangulation, 60, 2);
  Rng rng(5);
  std::vector<NodeId> want(fx.ps.num_parts, planar::kNoNode);
  std::vector<std::vector<NodeId>> members(fx.ps.num_parts);
  for (NodeId v = 0; v < fx.gg.graph.num_nodes(); ++v) {
    if (fx.ps.part_of(v) >= 0) members[fx.ps.part_of(v)].push_back(v);
  }
  for (int p = 0; p < fx.ps.num_parts; ++p) {
    want[p] = members[p][rng.next_below(members[p].size())];
  }
  PartSet rerooted = re_root_problem(fx.ps, *fx.engine, want);
  for (int p = 0; p < fx.ps.num_parts; ++p) {
    const auto& before = fx.ps.tree_of_part(p);
    const auto& after = rerooted.tree_of_part(p);
    EXPECT_EQ(after.root(), want[p]);
    EXPECT_EQ(after.size(), before.size());
    // Same edge set.
    for (planar::EdgeId e = 0; e < fx.gg.graph.num_edges(); ++e) {
      EXPECT_EQ(before.is_tree_edge(e), after.is_tree_edge(e)) << e;
    }
    // Depths consistent with the new root.
    for (NodeId v : after.nodes()) {
      EXPECT_EQ(after.depth(v),
                static_cast<int>(before.path(want[p], v).size()) - 1);
    }
  }
}

TEST(Problems, HiddenProblemAgreesWithDirectScan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fixture fx = make_fixture(Family::kGrid, 64, seed);
    std::vector<faces::FundamentalEdge> fe_of(fx.ps.num_parts);
    std::vector<NodeId> z_of(fx.ps.num_parts, planar::kNoNode);
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      const auto& t = fx.ps.tree_of_part(p);
      for (planar::EdgeId e : faces::real_fundamental_edges(t)) {
        const auto fe = faces::analyze_fundamental_edge(t, e);
        const faces::FaceData fd = faces::face_data(t, fe);
        for (NodeId z : t.nodes()) {
          if (!t.children(z).empty()) continue;
          if (faces::classify_node(fd, faces::node_data(t, z)) ==
              faces::FaceSide::kInside) {
            fe_of[p] = fe;
            z_of[p] = z;
            break;
          }
        }
        if (z_of[p] != planar::kNoNode) break;
      }
    }
    const auto res = hidden_problem(fx.ps, *fx.engine, fe_of, z_of);
    for (int p = 0; p < fx.ps.num_parts; ++p) {
      if (z_of[p] == planar::kNoNode) continue;
      // Direct scan: Definition 4's test at every real fundamental edge.
      const auto& t = fx.ps.tree_of_part(p);
      const faces::FaceData e = faces::face_data(t, fe_of[p]);
      bool hidden = false;
      for (planar::EdgeId f : faces::real_fundamental_edges(t)) {
        hidden = hidden ||
                 faces::hides(t, e,
                              faces::face_data(
                                  t, faces::analyze_fundamental_edge(t, f)),
                              z_of[p]);
      }
      EXPECT_EQ(res.value[p], hidden) << "seed=" << seed << " p=" << p;
    }
  }
}

// ------------------------------------------------ forest views ---------

/// Every accessor of the forest view `view` equals that of `alone`, the
/// same tree built standalone, on members and on every other node, dart
/// and edge of the graph.
void expect_same_tree(const RootedSpanningTree& view,
                      const RootedSpanningTree& alone, const std::string& tag) {
  const auto& g = view.graph();
  ASSERT_EQ(view.root(), alone.root()) << tag;
  ASSERT_EQ(view.root_stub_pos(), alone.root_stub_pos()) << tag;
  ASSERT_EQ(view.size(), alone.size()) << tag;
  ASSERT_TRUE(std::ranges::equal(view.nodes(), alone.nodes())) << tag;
  ASSERT_TRUE(std::ranges::equal(faces::real_fundamental_edges(view),
                                 faces::real_fundamental_edges(alone)))
      << tag;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::string at = tag + " v=" + std::to_string(v);
    ASSERT_EQ(view.contains(v), alone.contains(v)) << at;
    ASSERT_EQ(view.parent(v), alone.parent(v)) << at;
    ASSERT_EQ(view.parent_dart(v), alone.parent_dart(v)) << at;
    ASSERT_EQ(view.depth(v), alone.depth(v)) << at;
    ASSERT_EQ(view.subtree_size(v), alone.subtree_size(v)) << at;
    ASSERT_TRUE(std::ranges::equal(view.children(v), alone.children(v)))
        << at;
    ASSERT_EQ(view.pi_left(v), alone.pi_left(v)) << at;
    ASSERT_EQ(view.pi_right(v), alone.pi_right(v)) << at;
    if (alone.contains(v)) {
      for (planar::DartId d : g.rotation(v)) {
        ASSERT_EQ(view.t_offset(d), alone.t_offset(d)) << at;
      }
    }
    // Ancestry between every member and every node, in both directions.
    for (NodeId a : alone.nodes()) {
      ASSERT_EQ(view.is_ancestor(a, v), alone.is_ancestor(a, v)) << at;
      ASSERT_EQ(view.is_ancestor(v, a), alone.is_ancestor(v, a)) << at;
    }
  }
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(view.is_tree_edge(e), alone.is_tree_edge(e)) << tag;
  }
}

/// Checks every part's view against the tree built standalone from that
/// part's parent darts.
void expect_views_match(const PartSet& ps,
                        const std::vector<planar::DartId>& parent,
                        const std::string& tag) {
  const auto& g = *ps.g;
  for (int p = 0; p < ps.num_parts; ++p) {
    ASSERT_TRUE(ps.has_tree(p)) << tag;
    const NodeId r = ps.roots[static_cast<std::size_t>(p)];
    std::vector<planar::DartId> own(static_cast<std::size_t>(g.num_nodes()),
                                    planar::kNoDart);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (ps.part_of(v) == p && v != r) own[v] = parent[v];
    }
    const RootedSpanningTree alone(g, r, std::move(own));
    expect_same_tree(ps.tree_of_part(p), alone,
                     tag + " part=" + std::to_string(p));
  }
}

TEST(PartSet, ForestViewsMatchStandaloneTrees) {
  for (Family f : planar::all_families()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const GeneratedGraph gg = planar::make_instance(f, 120, seed);
      const auto& g = gg.graph;
      const std::string tag = std::string(planar::family_name(f)) +
                              " seed=" + std::to_string(seed);
      shortcuts::PartwiseEngine engine(g, gg.root_hint);

      // A DFS phase: the parts are the components of G − T_d, here with
      // T_d the BFS path from the root to a deepest node.
      const auto& bfs = engine.global_tree();
      std::vector<char> on_path(static_cast<std::size_t>(g.num_nodes()), 0);
      NodeId deepest = gg.root_hint;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (bfs.depth[v] > bfs.depth[deepest]) deepest = v;
      }
      for (NodeId v = deepest; v != planar::kNoNode;) {
        on_path[v] = 1;
        const planar::DartId d = bfs.parent_dart[v];
        v = d == planar::kNoDart ? planar::kNoNode : g.head(d);
      }
      const Components comps = connected_components(
          g, [&](NodeId v) { return on_path[v] == 0; });
      if (comps.count == 0) continue;
      const SpanningForest phase = boruvka_forest(
          g, comps.label, comps.count, [](planar::EdgeId) { return 0; },
          engine);
      const PartSet ps = part_set_from_forest(
          g, comps.label, comps.count, phase.parent_dart, phase.root, engine);
      expect_views_match(ps, phase.parent_dart, tag + " phase");

      // Its JOIN: separator-separator edges weigh 0, and every part's tree
      // is re-rooted at its largest node.
      const separator::SeparatorResult sep =
          separator::SeparatorEngine(engine).compute(ps);
      SpanningForest join = boruvka_forest(
          g, comps.label, comps.count,
          [&](planar::EdgeId e) {
            return sep.marked[g.edge_u(e)] && sep.marked[g.edge_v(e)] ? 0 : 1;
          },
          engine);
      std::vector<NodeId> roots(static_cast<std::size_t>(comps.count));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (comps.label[v] >= 0) roots[comps.label[v]] = v;
      }
      for (NodeId r : roots) re_root_path(g, join.parent_dart, r);
      const PartSet joined = part_set_from_forest(
          g, comps.label, comps.count, join.parent_dart, roots, engine);
      expect_views_match(joined, join.parent_dart, tag + " join");
    }
  }
}

}  // namespace
}  // namespace plansep::sub
