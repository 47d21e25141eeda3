// Tests for the baselines: Awerbuch's message-level DFS (valid DFS tree,
// Θ(n) rounds) and the randomized-estimate separator (balanced output,
// bounded retries).

#include <gtest/gtest.h>

#include <string>

#include "baselines/awerbuch.hpp"
#include "baselines/randomized_separator.hpp"
#include "core/plansep.hpp"
#include "planar/generators.hpp"
#include "util/rng.hpp"

namespace plansep::baselines {
namespace {

using planar::Family;
using planar::GeneratedGraph;
using planar::NodeId;

dfs::DfsCheck check_awerbuch(const planar::EmbeddedGraph& g,
                             const AwerbuchResult& res) {
  return dfs::check_dfs_tree(g, res.root, res.parent, res.depth);
}

TEST(Awerbuch, ProducesValidDfsTrees) {
  for (Family f : {Family::kGrid, Family::kTriangulation, Family::kCycle,
                   Family::kRandomPlanar, Family::kWheel, Family::kRandomTree}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const GeneratedGraph gg = planar::make_instance(f, 40, seed);
      Rng rng(seed);
      const NodeId root =
          static_cast<NodeId>(rng.next_below(gg.graph.num_nodes()));
      const AwerbuchResult res = awerbuch_dfs(gg.graph, root);
      const dfs::DfsCheck chk = check_awerbuch(gg.graph, res);
      EXPECT_TRUE(chk.ok()) << planar::family_name(f) << " seed=" << seed
                            << " violations=" << chk.violating_edges;
    }
  }
}

TEST(Awerbuch, RoundsScaleLinearly) {
  // Θ(n) rounds regardless of diameter: compare two sizes of the same
  // (low-diameter) family.
  Rng rng(3);
  const GeneratedGraph small = planar::stacked_triangulation(100, rng);
  const GeneratedGraph large = planar::stacked_triangulation(400, rng);
  const int r_small = awerbuch_dfs(small.graph, 0).rounds;
  const int r_large = awerbuch_dfs(large.graph, 0).rounds;
  EXPECT_GE(r_small, 100);      // at least one round per node
  EXPECT_GE(r_large, 2 * r_small);  // roughly linear growth
}

TEST(RandomizedSeparator, BalancedWithVerification) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedGraph gg =
        planar::make_instance(Family::kTriangulation, 80, seed);
    shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
    std::vector<int> part(gg.graph.num_nodes(), 0);
    sub::PartSet ps = sub::build_part_set(gg.graph, part, 1, engine);
    RandomizedSeparatorEngine rand_engine(engine, 0.3);
    Rng rng(seed * 7 + 1);
    const RandomizedSeparatorResult res = rand_engine.compute(ps, rng);
    const auto chk = separator::check_separator(ps, 0, res.result.parts[0]);
    EXPECT_TRUE(chk.balanced) << "seed=" << seed;
    EXPECT_GE(res.attempts, res.deterministic_fallbacks > 0 ? 1 : 0);
  }
}

TEST(RandomizedSeparator, LowSampleRateNeedsRetriesOrFallback) {
  // With a tiny sample the estimates are noisy; the engine must still end
  // balanced via retries or the deterministic fallback.
  const GeneratedGraph gg = planar::make_instance(Family::kGrid, 100, 1);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  sub::PartSet ps = sub::build_part_set(gg.graph, part, 1, engine);
  RandomizedSeparatorEngine rand_engine(engine, 0.02, 3);
  Rng rng(11);
  const RandomizedSeparatorResult res = rand_engine.compute(ps, rng);
  EXPECT_TRUE(separator::check_separator(ps, 0, res.result.parts[0]).balanced);
}

TEST(CoreFacade, SeparatorAndDfsOneCall) {
  const GeneratedGraph gg = planar::make_instance(Family::kGrid, 64, 1);
  const SeparatorRun run = compute_cycle_separator(gg.graph, gg.root_hint);
  EXPECT_TRUE(run.check.ok());
  EXPECT_GT(run.cost.measured, 0);
  EXPECT_GT(run.diameter_bound, 0);
  const DfsRun dfs_run = compute_dfs_tree(gg.graph, gg.root_hint);
  EXPECT_TRUE(dfs_run.check.ok());
  EXPECT_GT(dfs_run.build.phases, 0);
}

}  // namespace
}  // namespace plansep::baselines
