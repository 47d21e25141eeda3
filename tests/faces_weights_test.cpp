// Property tests for the core of the paper's first contribution: the
// deterministic face-weight formula (Definition 2) must equal the region
// count established by Lemmas 3 and 4 on EVERY real fundamental edge of
// EVERY instance, for arbitrary spanning trees and virtual-root stubs —
// and, under all-ones and random node weights, the region's weight sum.

#include <gtest/gtest.h>

#include <string>

#include "faces/fundamental.hpp"
#include "faces/weight_oracle.hpp"
#include "faces/weights.hpp"
#include "planar/generators.hpp"
#include "tree/rooted_tree.hpp"
#include "util/rng.hpp"

namespace plansep::faces {
namespace {

using planar::Family;
using planar::GeneratedGraph;

struct Case {
  Family family;
  int n;
  std::uint64_t seeds;
};

class WeightsMatchOracle : public ::testing::TestWithParam<Case> {};

TEST_P(WeightsMatchOracle, AllFundamentalEdges) {
  const Case& c = GetParam();
  int checked_edges = 0;
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const planar::EmbeddedGraph& g = gg.graph;
    Rng rng(seed * 977);
    // Random root on each repetition; random stub gap at the root.
    const planar::NodeId root =
        static_cast<planar::NodeId>(rng.next_below(g.num_nodes()));
    const int gap = static_cast<int>(rng.next_below(g.degree(root) + 1));
    const tree::RootedSpanningTree t =
        tree::RootedSpanningTree::bfs(g, root, gap);
    // Unit weights (the counts), then all-ones and random node weights:
    // the weighted sums must reproduce the counts and generalize them.
    std::vector<long long> unit;
    std::vector<long long> ones(static_cast<std::size_t>(g.num_nodes()), 1);
    std::vector<long long> random(ones.size());
    for (long long& x : random) x = rng.next_in(0, 100);
    const FaceOracle oracle(t);
    for (planar::EdgeId e : real_fundamental_edges(t)) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      const FaceOracle::Region region = oracle.real_face(fe);
      for (const std::vector<long long>* w : {&unit, &ones, &random}) {
        const long long expected =
            oracle.lemma_weight(fe.u, fe.v, region, *w);
        const long long got =
            face_weight(NodeWeights(t, *w), face_data(t, fe));
        ASSERT_EQ(got, expected)
            << planar::family_name(c.family) << " n=" << c.n
            << " seed=" << seed << " edge {" << fe.u << "," << fe.v << "}"
            << " anc=" << fe.u_ancestor_of_v
            << (fe.u_ancestor_of_v
                    ? (uses_left_order(fe) ? " [pi_l]" : " [pi_r]")
                    : "")
            << " root=" << root << " gap=" << gap << " weights="
            << (w == &unit ? "unit" : w == &ones ? "all-ones" : "random");
      }
      ++checked_edges;
    }
  }
  // The suite must actually exercise fundamental edges for cyclic families.
  if (c.family != Family::kRandomTree && c.family != Family::kStar) {
    EXPECT_GT(checked_edges, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightsMatchOracle,
    ::testing::Values(Case{Family::kCycle, 8, 3},
                      Case{Family::kCycle, 17, 3},
                      Case{Family::kWheel, 8, 4},
                      Case{Family::kWheel, 15, 4},
                      Case{Family::kGrid, 16, 4},
                      Case{Family::kGrid, 36, 4},
                      Case{Family::kGridDiagonals, 25, 6},
                      Case{Family::kCylinder, 24, 4},
                      Case{Family::kTriangulation, 12, 8},
                      Case{Family::kTriangulation, 30, 8},
                      Case{Family::kRandomPlanar, 24, 8},
                      Case{Family::kRandomPlanar, 48, 6},
                      Case{Family::kOuterplanar, 20, 8}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string s = std::string(planar::family_name(info.param.family)) +
                      "_" + std::to_string(info.param.n);
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

TEST(WeightsOracle, WheelByHand) {
  // Wheel with hub 0 and rim 1..6; rooted at rim node 1. The BFS tree is
  // hub-star-like; fundamental edges are rim edges. Sanity check that the
  // oracle and the formula agree and produce plausible counts.
  const GeneratedGraph gg = planar::wheel(7);
  const tree::RootedSpanningTree t = tree::RootedSpanningTree::bfs(gg.graph, 1);
  const FaceOracle oracle(t);
  const auto fund = real_fundamental_edges(t);
  ASSERT_FALSE(fund.empty());
  for (planar::EdgeId e : fund) {
    const FundamentalEdge fe = analyze_fundamental_edge(t, e);
    const auto region = oracle.real_face(fe);
    EXPECT_EQ(face_weight(NodeWeights(t), face_data(t, fe)),
              oracle.lemma_weight(fe.u, fe.v, region));
    // A face of the wheel holds at most all non-border nodes.
    EXPECT_LE(region.inside_count, t.size() - 2);
    EXPECT_GE(region.inside_count, 0);
  }
}

TEST(WeightsOracle, SubsetInstance) {
  // Weights remain correct on induced subgraphs (partition parts).
  const GeneratedGraph gg = planar::grid(5, 5);
  std::vector<char> in_set(25, 0);
  // A 4x4 sub-grid (nodes with row<4 and col<4).
  for (int r = 0; r < 4; ++r) {
    for (int col = 0; col < 4; ++col) in_set[r * 5 + col] = 1;
  }
  const tree::RootedSpanningTree t =
      tree::RootedSpanningTree::bfs_subset(gg.graph, 0, in_set);
  EXPECT_EQ(t.size(), 16);
  const FaceOracle oracle(t);
  int count = 0;
  for (planar::EdgeId e : real_fundamental_edges(t)) {
    const FundamentalEdge fe = analyze_fundamental_edge(t, e);
    const auto region = oracle.real_face(fe);
    EXPECT_EQ(face_weight(NodeWeights(t), face_data(t, fe)),
              oracle.lemma_weight(fe.u, fe.v, region));
    ++count;
  }
  EXPECT_GT(count, 0);
}

}  // namespace
}  // namespace plansep::faces
