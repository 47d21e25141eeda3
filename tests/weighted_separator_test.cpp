// Tests for weighted cycle separators: weighted balance must hold for
// every weight scheme (uniform, random, zipf-skewed, one dominating node,
// sparse 0/1 weights), across families and seeds.

#include <gtest/gtest.h>

#include <string>

#include "core/plansep.hpp"
#include "subroutines/components.hpp"

namespace plansep::separator {
namespace {

using planar::Family;
using planar::NodeId;

enum class Scheme { kUniform, kRandom, kZipf, kOneHeavy, kSparse01 };

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kUniform: return "uniform";
    case Scheme::kRandom: return "random";
    case Scheme::kZipf: return "zipf";
    case Scheme::kOneHeavy: return "one_heavy";
    case Scheme::kSparse01: return "sparse01";
  }
  return "?";
}

std::vector<long long> make_weights(Scheme s, int n, Rng& rng) {
  std::vector<long long> w(static_cast<std::size_t>(n), 1);
  switch (s) {
    case Scheme::kUniform:
      break;
    case Scheme::kRandom:
      for (auto& x : w) x = rng.next_in(0, 100);
      break;
    case Scheme::kZipf:
      for (int i = 0; i < n; ++i) {
        w[static_cast<std::size_t>(i)] =
            static_cast<long long>(1000.0 / (1 + rng.next_below(n)));
      }
      break;
    case Scheme::kOneHeavy: {
      const auto big = rng.next_below(static_cast<std::uint64_t>(n));
      w[static_cast<std::size_t>(big)] = 100LL * n;  // > 2/3 of the total
      break;
    }
    case Scheme::kSparse01:
      for (auto& x : w) x = rng.next_bool(0.1) ? 1 : 0;
      break;
  }
  return w;
}

long long max_component_weight(const planar::EmbeddedGraph& g,
                               const sub::PartSet& ps, int p,
                               const std::vector<NodeId>& path,
                               const std::vector<long long>& w) {
  std::vector<char> marked(g.num_nodes(), 0);
  for (NodeId v : path) marked[v] = 1;
  const sub::Components comps = sub::connected_components(
      g, [&](NodeId v) { return ps.part_of(v) == p && !marked[v]; });
  std::vector<long long> sums(comps.count, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (comps.label[v] >= 0) sums[comps.label[v]] += w[v];
  }
  long long mx = 0;
  for (long long s : sums) mx = std::max(mx, s);
  return mx;
}

TEST(WeightedSeparator, BalancedForAllSchemes) {
  long long last_resorts = 0, parts_total = 0;
  for (Family f : {Family::kGrid, Family::kTriangulation,
                   Family::kRandomPlanar, Family::kOuterplanar,
                   Family::kRandomTree, Family::kCycle}) {
    for (Scheme s :
         {Scheme::kUniform, Scheme::kRandom, Scheme::kZipf, Scheme::kOneHeavy,
          Scheme::kSparse01}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto gg = planar::make_instance(f, 120, seed);
        const auto& g = gg.graph;
        shortcuts::PartwiseEngine engine(g, gg.root_hint);
        std::vector<int> part(g.num_nodes(), 0);
        sub::PartSet ps = sub::build_part_set(g, part, 1, engine);
        Rng rng(seed * 101 + static_cast<int>(s));
        const auto w = make_weights(s, g.num_nodes(), rng);
        long long total = 0;
        for (long long x : w) total += x;

        SeparatorEngine se(engine);
        const SeparatorResult res = se.compute_weighted(ps, w);
        const auto& sep = res.parts[0];
        ASSERT_FALSE(sep.path.empty())
            << planar::family_name(f) << " " << scheme_name(s);
        const long long mx =
            max_component_weight(g, ps, 0, sep.path, w);
        EXPECT_LE(3 * mx, 2 * total)
            << planar::family_name(f) << " " << scheme_name(s)
            << " seed=" << seed << " phase=" << sep.phase;
        ++parts_total;
        last_resorts += res.stats.phase_counts[7];
        EXPECT_GT(res.cost.measured, 0);
      }
    }
  }
  // The weighted candidates must suffice; the last-resort scan is a
  // safety net that should never fire.
  EXPECT_EQ(last_resorts, 0) << last_resorts << "/" << parts_total;
}

// Under constant weights the weighted balance is the unweighted one, so
// the weighted engine settles its first candidate, the unweighted winner,
// and returns it field by field, closing edge included.
TEST(WeightedSeparator, UniformWeightsMatchUnweightedGuarantee) {
  for (Family f : planar::all_families()) {
    for (int n : {30, 150, 600}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto gg = planar::make_instance(f, n, seed);
        const auto& g = gg.graph;
        shortcuts::PartwiseEngine engine(g, gg.root_hint);
        std::vector<int> part(g.num_nodes(), 0);
        sub::PartSet ps = sub::build_part_set(g, part, 1, engine);
        const std::vector<long long> w(g.num_nodes(), 7);  // constant
        SeparatorEngine se(engine);
        const SeparatorResult plain = se.compute(ps);
        const SeparatorResult res = se.compute_weighted(ps, w);
        const PartSeparator& want = plain.parts[0];
        const PartSeparator& got = res.parts[0];
        const std::string where = std::string(planar::family_name(f)) +
                                  " n=" + std::to_string(n) +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(got.path, want.path) << where;
        EXPECT_EQ(got.endpoint_a, want.endpoint_a) << where;
        EXPECT_EQ(got.endpoint_b, want.endpoint_b) << where;
        EXPECT_EQ(got.closing_edge, want.closing_edge) << where;
        EXPECT_EQ(got.phase, want.phase) << where;
        EXPECT_LE(3 * max_component_weight(g, ps, 0, got.path, w),
                  2 * 7LL * g.num_nodes())
            << where;
      }
    }
  }
}

TEST(WeightedSeparator, AllZeroWeightsDegenerate) {
  const auto gg = planar::make_instance(Family::kGrid, 36, 1);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  sub::PartSet ps = sub::build_part_set(gg.graph, part, 1, engine);
  std::vector<long long> w(gg.graph.num_nodes(), 0);
  SeparatorEngine se(engine);
  const SeparatorResult res = se.compute_weighted(ps, w);
  EXPECT_FALSE(res.parts[0].path.empty());  // trivially balanced
}

}  // namespace
}  // namespace plansep::separator
