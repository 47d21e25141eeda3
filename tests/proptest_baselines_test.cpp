// Property-based coverage for the baselines, which until now only ran on
// hand-picked instances: Awerbuch's message-level DFS must produce a valid
// DFS tree (the Theorem 2 oracle) and the randomized-estimate separator a
// balanced cycle separator (the Theorem 1 oracle) on every seeded case the
// harness generates — including mutated ones.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/awerbuch.hpp"
#include "baselines/randomized_separator.hpp"
#include "dfs/partial_tree.hpp"
#include "subroutines/part_context.hpp"
#include "testing/proptest.hpp"
#include "util/rng.hpp"

namespace plansep::testing {
namespace {

using planar::Family;
using planar::NodeId;

// The harness generates disconnected instances for some families/mutations;
// both baselines are specified on connected inputs only.
bool connected(const planar::EmbeddedGraph& g) {
  InvariantReport gate;
  check_embedding(g, /*require_connected=*/true, gate);
  return gate.ok();
}

// Loads an AwerbuchResult into a PartialDfsTree (parents before children)
// so the centralized DFS oracle can judge it. Attachment failures surface
// as CheckError, which run_one records as a violation.
dfs::PartialDfsTree to_partial_tree(const planar::EmbeddedGraph& g,
                                    const baselines::AwerbuchResult& res) {
  dfs::PartialDfsTree tree(g, res.root);
  std::vector<NodeId> order;
  for (NodeId v = 0; v < g.num_nodes(); ++v) order.push_back(v);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return res.depth[static_cast<std::size_t>(a)] <
           res.depth[static_cast<std::size_t>(b)];
  });
  for (NodeId v : order) {
    if (v == res.root || res.depth[static_cast<std::size_t>(v)] < 0) continue;
    tree.attach_path(res.parent[static_cast<std::size_t>(v)], {v});
  }
  return tree;
}

TEST(ProptestBaselines, AwerbuchSatisfiesDfsOracle) {
  const Property prop = [](const Instance& inst, InvariantReport& rep) {
    const auto& g = inst.gg.graph;
    if (!connected(g)) return;
    const baselines::AwerbuchResult res =
        baselines::awerbuch_dfs(g, inst.gg.root_hint);
    check_dfs_tree_oracle(g, to_partial_tree(g, res), rep);
    if (res.rounds < g.num_nodes()) {
      rep.fail("awerbuch/rounds: " + std::to_string(res.rounds) +
               " < n = " + std::to_string(g.num_nodes()));
    }
  };
  PropConfig cfg;
  cfg.cases = 120;
  cfg.min_n = 12;
  cfg.max_n = 72;
  cfg.mutation_probability = 0.35;
  cfg.base_seed = 20260806;
  const PropResult res = run_property("awerbuch_dfs", cfg, prop);
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.cases_run, cfg.cases);
}

TEST(ProptestBaselines, RandomizedSeparatorSatisfiesSeparatorOracle) {
  const Property prop = [](const Instance& inst, InvariantReport& rep) {
    const auto& g = inst.gg.graph;
    if (!connected(g)) return;
    shortcuts::PartwiseEngine engine(g, inst.gg.root_hint);
    std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
    sub::PartSet ps =
        sub::build_part_set(g, part, 1, engine, {inst.gg.root_hint});
    baselines::RandomizedSeparatorEngine rand_engine(engine, 0.25);
    Rng rng(inst.spec.seed ^ 0x72616e647365'70ULL);
    const baselines::RandomizedSeparatorResult res =
        rand_engine.compute(ps, rng);
    check_cycle_separator(ps, 0, res.result.parts.at(0), rep);
    if (res.attempts < 1) rep.fail("randsep/attempts: no attempt recorded");
  };
  PropConfig cfg;
  cfg.cases = 90;
  cfg.min_n = 12;
  cfg.max_n = 64;
  cfg.mutation_probability = 0.35;
  cfg.base_seed = 97;
  const PropResult res = run_property("randomized_separator", cfg, prop);
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.cases_run, cfg.cases);
}

}  // namespace
}  // namespace plansep::testing
