// The library's checks against the test oracles' independent references,
// over seeded instances of every family: dfs::check_dfs_tree (Euler
// intervals) against the parent-walk oracle on DFS, BFS and random
// spanning trees, and sub::balance_after_removal against the oracles'
// reference BFS on random removed sets, weighted and unweighted. Each side
// is the other's check: a broken library check fails here even where the
// engines happen to produce correct output.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "core/plansep.hpp"
#include "dfs/validate.hpp"
#include "subroutines/components.hpp"
#include "testing/oracles.hpp"
#include "util/rng.hpp"

namespace plansep::testing {
namespace {

using planar::NodeId;

// A rooted spanning tree as the checks take it.
struct Tree {
  NodeId root = 0;
  std::vector<NodeId> parent;
  std::vector<int> depth;
};

Tree bfs_tree(const planar::EmbeddedGraph& g, NodeId root) {
  const congest::BfsResult bfs = congest::distributed_bfs(g, root);
  Tree t{root, std::vector<NodeId>(static_cast<std::size_t>(g.num_nodes())),
         bfs.depth};
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const planar::DartId d = bfs.parent_dart[static_cast<std::size_t>(v)];
    t.parent[static_cast<std::size_t>(v)] =
        d == planar::kNoDart ? planar::kNoNode : g.head(d);
  }
  return t;
}

// Grows a tree from the root by attaching the head of a random frontier
// dart, so the shape is neither BFS nor DFS.
Tree random_tree(const planar::EmbeddedGraph& g, NodeId root, Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  Tree t{root, std::vector<NodeId>(n, planar::kNoNode),
         std::vector<int>(n, -1)};
  t.depth[static_cast<std::size_t>(root)] = 0;
  std::vector<planar::DartId> frontier(g.rotation(root).begin(),
                                       g.rotation(root).end());
  while (!frontier.empty()) {
    const std::size_t i = rng.next_below(frontier.size());
    const planar::DartId d = frontier[i];
    frontier[i] = frontier.back();
    frontier.pop_back();
    const NodeId v = g.head(d);
    if (t.depth[static_cast<std::size_t>(v)] >= 0) continue;
    t.parent[static_cast<std::size_t>(v)] = g.tail(d);
    t.depth[static_cast<std::size_t>(v)] =
        t.depth[static_cast<std::size_t>(g.tail(d))] + 1;
    frontier.insert(frontier.end(), g.rotation(v).begin(),
                    g.rotation(v).end());
  }
  return t;
}

bool library_ok(const planar::EmbeddedGraph& g, const Tree& t) {
  return dfs::check_dfs_tree(g, t.root, t.parent, t.depth).ok();
}

bool oracle_ok(const planar::EmbeddedGraph& g, const Tree& t) {
  InvariantReport rep;
  check_dfs_tree_oracle(g, t.root, t.parent, t.depth, rep);
  return rep.ok();
}

TEST(ProptestOracles, DfsCheckAgreesWithParentWalkOracle) {
  int rejected = 0;
  for (const planar::Family family : planar::all_families()) {
    for (const int n : {40, 120}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const planar::GeneratedGraph gg =
            planar::make_instance(family, n, seed);
        const auto& g = gg.graph;
        const std::string tag = std::string(planar::family_name(family)) +
                                " n=" + std::to_string(n) +
                                " seed=" + std::to_string(seed);
        Rng rng(seed);
        const NodeId root =
            static_cast<NodeId>(rng.next_below(g.num_nodes()));

        const DfsRun dfs = compute_dfs_tree(g, root);
        const dfs::PartialDfsTree& built = dfs.build.tree;
        const Tree trees[] = {
            {root, built.parents(), built.depths()},
            bfs_tree(g, root),
            random_tree(g, root, rng),
        };
        EXPECT_TRUE(oracle_ok(g, trees[0])) << tag;
        for (const Tree& t : trees) {
          const bool lib = library_ok(g, t);
          EXPECT_EQ(lib, oracle_ok(g, t)) << tag;
          rejected += lib ? 0 : 1;
        }
        // A parent out of range, a skipped level and a root depth whose
        // successor overflows an int: both sides refuse.
        const NodeId v = (root + 1) % g.num_nodes();
        Tree bad[3] = {trees[0], trees[0], trees[0]};
        bad[0].parent[static_cast<std::size_t>(v)] = g.num_nodes();
        ++bad[1].depth[static_cast<std::size_t>(v)];
        bad[2].depth[static_cast<std::size_t>(root)] =
            std::numeric_limits<int>::max();
        for (const Tree& t : bad) {
          EXPECT_FALSE(library_ok(g, t)) << tag;
          EXPECT_FALSE(oracle_ok(g, t)) << tag;
        }
      }
    }
  }
  EXPECT_GT(rejected, 0) << "no non-DFS tree was generated";
}

TEST(ProptestOracles, BalanceAgreesWithReferenceSearch) {
  int unbalanced = 0;
  for (const planar::Family family : planar::all_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const planar::GeneratedGraph gg = planar::make_instance(family, 90, seed);
      const auto& g = gg.graph;
      const auto n = static_cast<std::size_t>(g.num_nodes());
      Rng rng(seed * 7919);
      for (int trial = 0; trial < 8; ++trial) {
        // Participating: every node, or a random part that keeps node 0.
        std::vector<int> part;
        std::vector<NodeId> nodes;
        if (trial % 2 == 1) {
          part.assign(n, 1);
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            if (v == 0 || rng.next_bool(0.7)) {
              part[static_cast<std::size_t>(v)] = 0;
              nodes.push_back(v);
            }
          }
        }
        std::vector<NodeId> removed;
        const double q = trial < 4 ? 0.05 : 0.3;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          if (rng.next_bool(q)) removed.push_back(v);
        }
        std::vector<long long> weight;
        if (trial % 4 >= 2) {
          for (std::size_t v = 0; v < n; ++v) {
            weight.push_back(static_cast<long long>(rng.next_below(10)));
          }
        }
        const sub::Balance lib =
            sub::balance_after_removal(g, nodes, removed, weight);
        const ReferenceBalance ref =
            reference_balance(g, part, 0, removed, weight);
        const std::string tag = std::string(planar::family_name(family)) +
                                " seed=" + std::to_string(seed) +
                                " trial=" + std::to_string(trial);
        EXPECT_EQ(lib.largest, ref.heaviest) << tag;
        EXPECT_EQ(lib.total, ref.total) << tag;
        EXPECT_EQ(lib.balanced(), ref.ok()) << tag;
        unbalanced += lib.balanced() ? 0 : 1;
      }
    }
  }
  EXPECT_GT(unbalanced, 0) << "no unbalanced removal was generated";
}

}  // namespace
}  // namespace plansep::testing
