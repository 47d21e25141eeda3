// Deep-tree stress: the paper's results hold for ARBITRARY spanning trees
// (§3.1.1 stresses depth up to Θ(n)), but most sweeps elsewhere use BFS
// trees. Here every face-machinery property is re-checked on random DFS
// spanning trees (which are as deep as the graph allows), and the
// separator engine is run end-to-end on them.

#include <gtest/gtest.h>

#include <string>

#include "faces/augmentation.hpp"
#include "faces/fundamental.hpp"
#include "faces/hidden.hpp"
#include "faces/membership.hpp"
#include "faces/weight_oracle.hpp"
#include "faces/weights.hpp"
#include "planar/generators.hpp"
#include "separator/engine.hpp"
#include "separator/validate.hpp"
#include "subroutines/part_context.hpp"
#include "tree/rooted_tree.hpp"
#include "util/rng.hpp"

namespace plansep::faces {
namespace {

using planar::Family;
using planar::GeneratedGraph;
using planar::NodeId;

/// Random DFS spanning tree: maximally deep, randomized child order.
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
  const int gap = static_cast<int>(rng.next_below(g.degree(root) + 1));
  return tree::RootedSpanningTree(g, root, std::move(parent), gap);
}

struct Case {
  Family family;
  int n;
  std::uint64_t seeds;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s = std::string(planar::family_name(info.param.family)) + "_" +
                  std::to_string(info.param.n);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

class DeepTreeProperty : public ::testing::TestWithParam<Case> {};

TEST_P(DeepTreeProperty, WeightsAndMembership) {
  const Case& c = GetParam();
  int max_depth_seen = 0;
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    Rng rng(seed * 60013 + 1);
    const NodeId root =
        static_cast<NodeId>(rng.next_below(gg.graph.num_nodes()));
    const auto t = random_dfs_tree(gg.graph, root, rng);
    for (NodeId v : t.nodes()) {
      max_depth_seen = std::max(max_depth_seen, t.depth(v));
    }
    const FaceOracle oracle(t);
    for (planar::EdgeId e : real_fundamental_edges(t)) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      const auto region = oracle.real_face(fe);
      // Definition 2 == Lemmas 3/4 on deep trees.
      ASSERT_EQ(face_weight(NodeWeights(t), face_data(t, fe)),
                oracle.lemma_weight(fe.u, fe.v, region))
          << planar::family_name(c.family) << " seed=" << seed << " e={"
          << fe.u << "," << fe.v << "}";
      // Remark 1 membership on deep trees.
      std::vector<char> on_border(gg.graph.num_nodes(), 0);
      for (NodeId b : region.border) on_border[b] = 1;
      const FaceData fd = face_data(t, fe);
      for (NodeId z : t.nodes()) {
        const FaceSide side = classify_node(fd, node_data(t, z));
        FaceSide want = FaceSide::kOutside;
        if (on_border[z]) {
          want = FaceSide::kBorder;
        } else if (region.inside[z]) {
          want = FaceSide::kInside;
        }
        ASSERT_EQ(static_cast<int>(side), static_cast<int>(want))
            << planar::family_name(c.family) << " seed=" << seed << " e={"
            << fe.u << "," << fe.v << "} z=" << z;
      }
    }
  }
  // The sweep must actually exercise deep trees.
  if (c.family == Family::kGrid) {
    EXPECT_GT(max_depth_seen, c.n / 4);
  }
}

TEST_P(DeepTreeProperty, NotHiddenLeafWeightRealizable) {
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    Rng rng(seed * 71993 + 5);
    const NodeId root =
        static_cast<NodeId>(rng.next_below(gg.graph.num_nodes()));
    const auto t = random_dfs_tree(gg.graph, root, rng);
    const FaceOracle oracle(t);
    const FaceTable table(t);
    for (std::size_t i = 0; i < table.size(); ++i) {
      const FaceData& fd = table.face(i);
      const FundamentalEdge& fe = fd.fe;
      const auto region = oracle.real_face(fe);
      for (NodeId z : t.nodes()) {
        if (!region.inside[z] || !t.children(z).empty()) continue;
        if (gg.graph.has_edge(fe.u, z)) continue;
        if (!hiding_edges(table, fd, z).empty()) continue;
        const auto regions = oracle.augmented_faces(fe, z);
        const long long got = augmented_weight(NodeWeights(t), fd, z);
        bool matched = false;
        for (const auto& r : regions) {
          matched |= (oracle.lemma_weight(fe.u, z, r) == got);
        }
        ASSERT_TRUE(matched)
            << planar::family_name(c.family) << " seed=" << seed << " e={"
            << fe.u << "," << fe.v << "} z=" << z;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeepTreeProperty,
                         ::testing::Values(Case{Family::kGrid, 25, 6},
                                           Case{Family::kGrid, 49, 4},
                                           Case{Family::kGridDiagonals, 36, 5},
                                           Case{Family::kCylinder, 36, 4},
                                           Case{Family::kTriangulation, 25, 8},
                                           Case{Family::kRandomPlanar, 36, 6},
                                           Case{Family::kOuterplanar, 24, 6},
                                           Case{Family::kWheel, 14, 4}),
                         case_name);

TEST(DeepTreeSeparator, EngineWorksOnRandomDfsTrees) {
  // Run the separator phases on parts whose trees are deep random DFS
  // trees instead of Borůvka trees.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const GeneratedGraph gg =
        planar::make_instance(Family::kGridDiagonals, 100, seed);
    const auto& g = gg.graph;
    Rng rng(seed * 29 + 3);
    plansep::shortcuts::PartwiseEngine engine(g, gg.root_hint);
    const NodeId root = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = random_dfs_tree(g, root, rng);
    std::vector<planar::DartId> parent(g.num_nodes(), planar::kNoDart);
    for (NodeId v : t.nodes()) parent[v] = t.parent_dart(v);
    std::vector<int> part(g.num_nodes(), 0);
    plansep::sub::PartSet ps = plansep::sub::part_set_from_forest(g, part, 1, parent, {root},
                                                engine);
    plansep::separator::SeparatorEngine se(engine);
    const auto res = se.compute(ps);
    const auto chk = plansep::separator::check_separator(ps, 0, res.parts[0]);
    EXPECT_TRUE(chk.ok()) << "seed=" << seed << " phase=" << res.parts[0].phase
                          << " balance=" << chk.balance;
    EXPECT_EQ(res.stats.phase_counts[7], 0) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace plansep::faces
