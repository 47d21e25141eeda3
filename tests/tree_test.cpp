// Tests for rooted spanning trees: construction, DFS orders, intervals,
// ancestor queries, LCA, paths and centroids.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "planar/generators.hpp"
#include "tree/rooted_tree.hpp"
#include "util/rng.hpp"

namespace plansep::tree {
namespace {

using planar::Family;
using planar::GeneratedGraph;
using planar::make_instance;

TEST(RootedTree, PathTreeBasics) {
  const GeneratedGraph gg = planar::path(5);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, 0);
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.depth(4), 4);
  EXPECT_EQ(t.subtree_size(0), 5);
  EXPECT_EQ(t.subtree_size(4), 1);
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_TRUE(t.is_ancestor(1, 4));
  EXPECT_FALSE(t.is_ancestor(4, 1));
  EXPECT_EQ(t.lca(3, 4), 3);
  const auto p = t.path(1, 4);
  EXPECT_EQ(p, (std::vector<planar::NodeId>{1, 2, 3, 4}));
}

TEST(RootedTree, OrdersAreBijective) {
  Rng rng(5);
  const GeneratedGraph gg = planar::stacked_triangulation(40, rng);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  std::vector<int> seen_l(t.size() + 1, 0), seen_r(t.size() + 1, 0);
  for (planar::NodeId v : t.nodes()) {
    ASSERT_GE(t.pi_left(v), 1);
    ASSERT_LE(t.pi_left(v), t.size());
    ASSERT_GE(t.pi_right(v), 1);
    ASSERT_LE(t.pi_right(v), t.size());
    seen_l[t.pi_left(v)]++;
    seen_r[t.pi_right(v)]++;
  }
  for (int i = 1; i <= t.size(); ++i) {
    EXPECT_EQ(seen_l[i], 1);
    EXPECT_EQ(seen_r[i], 1);
  }
  EXPECT_EQ(t.pi_left(t.root()), 1);
  EXPECT_EQ(t.pi_right(t.root()), 1);
}

TEST(RootedTree, SubtreeIntervals) {
  Rng rng(9);
  const GeneratedGraph gg = planar::random_planar(60, 90, rng);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  for (planar::NodeId v : t.nodes()) {
    for (planar::NodeId w : t.nodes()) {
      const bool anc = t.is_ancestor(v, w);
      // Interval characterization in both orders.
      const bool by_left = t.pi_left(w) >= t.pi_left(v) &&
                           t.pi_left(w) < t.pi_left(v) + t.subtree_size(v);
      const bool by_right = t.pi_right(w) >= t.pi_right(v) &&
                            t.pi_right(w) < t.pi_right(v) + t.subtree_size(v);
      EXPECT_EQ(anc, by_left);
      EXPECT_EQ(anc, by_right);
      // Cross-check against parent walking.
      planar::NodeId x = w;
      bool walk = false;
      while (x != planar::kNoNode) {
        if (x == v) {
          walk = true;
          break;
        }
        x = t.parent(x);
      }
      EXPECT_EQ(anc, walk);
    }
  }
}

TEST(RootedTree, LeftOrderVisitsChildrenCounterclockwise) {
  // Children are stored in increasing t-offset (clockwise from parent);
  // LEFT-DFS visits the child with the greatest offset first, so within a
  // node's children π_ℓ decreases with offset and π_r increases.
  Rng rng(13);
  const GeneratedGraph gg = planar::stacked_triangulation(30, rng);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  for (planar::NodeId v : t.nodes()) {
    const auto& ch = t.children(v);
    for (std::size_t i = 0; i + 1 < ch.size(); ++i) {
      EXPECT_GT(t.pi_left(ch[i]), t.pi_left(ch[i + 1]));
      EXPECT_LT(t.pi_right(ch[i]), t.pi_right(ch[i + 1]));
    }
  }
}

TEST(RootedTree, SubsetTree) {
  const GeneratedGraph gg = planar::grid(4, 4);
  std::vector<char> in_set(16, 0);
  for (planar::NodeId v : {0, 1, 2, 4, 5, 6}) in_set[v] = 1;
  const RootedSpanningTree t =
      RootedSpanningTree::bfs_subset(gg.graph, 0, in_set);
  EXPECT_EQ(t.size(), 6);
  EXPECT_FALSE(t.contains(3));
  EXPECT_TRUE(t.contains(6));
  EXPECT_EQ(t.subtree_size(0), 6);
}

TEST(RootedTree, CentroidBalancesStars) {
  const GeneratedGraph gg = planar::star(20);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, 1);
  const planar::NodeId c = NodeWeights(t).centroid();
  EXPECT_EQ(c, 0);  // the hub
}

TEST(RootedTree, CentroidProperty) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const GeneratedGraph gg = planar::random_tree(50, rng);
    const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, 0);
    const planar::NodeId c = NodeWeights(t).centroid();
    // Every component of T - c has at most n/2 nodes.
    const int above = t.size() - t.subtree_size(c);
    EXPECT_LE(2 * above, t.size());
    for (planar::NodeId ch : t.children(c)) {
      EXPECT_LE(2 * t.subtree_size(ch), t.size());
    }
  }
}

TEST(RootedTree, RootStubOffsets) {
  // With the stub at gap g, the dart at rotation index g has offset 1.
  const GeneratedGraph gg = planar::wheel(8);
  for (int gap = 0; gap <= gg.graph.degree(0); ++gap) {
    const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, 0, gap);
    const auto rot = gg.graph.rotation(0);
    for (int i = 0; i < static_cast<int>(rot.size()); ++i) {
      const int off = t.t_offset(rot[i]);
      EXPECT_GE(off, 1);
      EXPECT_LE(off, static_cast<int>(rot.size()));
      if (i == gap && gap < static_cast<int>(rot.size())) {
        EXPECT_EQ(off, 1);
      }
    }
  }
}

TEST(RootedTree, PathEndpointsAndLca) {
  Rng rng(21);
  const GeneratedGraph gg = planar::random_planar(80, 120, rng);
  const RootedSpanningTree t = RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  Rng pick(4);
  for (int trial = 0; trial < 50; ++trial) {
    const planar::NodeId u =
        t.nodes()[pick.next_below(t.nodes().size())];
    const planar::NodeId v =
        t.nodes()[pick.next_below(t.nodes().size())];
    const auto p = t.path(u, v);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), u);
    EXPECT_EQ(p.back(), v);
    // Consecutive nodes are tree neighbors.
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(t.parent(p[i]) == p[i + 1] || t.parent(p[i + 1]) == p[i]);
    }
    // The LCA is the unique minimum-depth node on the path.
    const planar::NodeId w = t.lca(u, v);
    EXPECT_NE(std::find(p.begin(), p.end(), w), p.end());
    for (planar::NodeId x : p) EXPECT_GE(t.depth(x), t.depth(w));
  }
}

}  // namespace
}  // namespace plansep::tree
