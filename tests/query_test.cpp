// The query subsystem (src/query/): exactness of the separator-hierarchy
// distance oracle against a BFS oracle across every generator family,
// persistence round-trips, the cache-backed job runner, and edge-kill
// invalidation — only the pieces containing both endpoints rebuild, and
// post-kill answers match both a filtered BFS oracle and a fresh engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "io/artifact.hpp"
#include "obs/metrics.hpp"
#include "planar/generators.hpp"
#include "query/engine.hpp"
#include "query/index.hpp"
#include "query/service.hpp"
#include "separator/hierarchy.hpp"
#include "serve/cache.hpp"
#include "shortcuts/partwise.hpp"
#include "util/check.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

// BFS distances from s, skipping edges in `killed` (nullable).
std::vector<std::int64_t> bfs_oracle(const planar::EmbeddedGraph& g,
                                     planar::NodeId s,
                                     const query::EdgeSet* killed = nullptr) {
  std::vector<std::int64_t> d(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<planar::NodeId> q;
  d[static_cast<std::size_t>(s)] = 0;
  q.push(s);
  while (!q.empty()) {
    const planar::NodeId u = q.front();
    q.pop();
    for (const planar::DartId dart : g.rotation(u)) {
      const planar::NodeId w = g.head(dart);
      if (killed != nullptr && killed->contains(u, w)) continue;
      if (d[static_cast<std::size_t>(w)] < 0) {
        d[static_cast<std::size_t>(w)] = d[static_cast<std::size_t>(u)] + 1;
        q.push(w);
      }
    }
  }
  return d;
}

struct Built {
  planar::EmbeddedGraph graph;
  separator::SeparatorHierarchy hierarchy;
  query::QueryIndex index;
};

Built build(planar::Family f, int n, std::uint64_t seed, int leaf_size) {
  auto gg = planar::make_instance(f, n, seed);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  separator::SeparatorHierarchy h =
      separator::build_hierarchy(gg.graph, engine, leaf_size);
  query::QueryIndex qi = query::build_query_index(gg.graph, h, leaf_size);
  return Built{std::move(gg.graph), std::move(h), std::move(qi)};
}

// ----------------------------------------------------------- exactness ----

TEST(QueryIndexTest, AllPairsExactAgainstBfsOracleAcrossFamilies) {
  for (const planar::Family f : planar::all_families()) {
    for (const int leaf_size : {4, 16}) {
      Built b = build(f, 48, 3, leaf_size);
      query::QueryEngine eng(b.graph, std::move(b.hierarchy),
                             std::move(b.index));
      for (planar::NodeId u = 0; u < b.graph.num_nodes(); ++u) {
        const auto want = bfs_oracle(b.graph, u);
        for (planar::NodeId v = 0; v < b.graph.num_nodes(); ++v) {
          ASSERT_EQ(eng.distance(u, v), want[static_cast<std::size_t>(v)])
              << planar::family_name(f) << " leaf=" << leaf_size << " u=" << u
              << " v=" << v;
        }
      }
      const query::QueryCounters c = eng.counters();
      EXPECT_EQ(c.queries,
                static_cast<long long>(b.graph.num_nodes()) *
                    b.graph.num_nodes());
      EXPECT_EQ(c.pieces_rebuilt, 0);
    }
  }
}

TEST(QueryIndexTest, ReachabilityAndSelfDistance) {
  Built b = build(planar::Family::kGrid, 36, 1, 8);
  query::QueryEngine eng(b.graph, std::move(b.hierarchy), std::move(b.index));
  EXPECT_EQ(eng.distance(5, 5), 0);
  EXPECT_TRUE(eng.reachable(0, b.graph.num_nodes() - 1));
  const std::vector<std::pair<planar::NodeId, planar::NodeId>> pairs = {
      {0, 1}, {1, 0}, {3, 3}};
  const auto d = eng.distances(pairs);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], d[1]);  // undirected symmetry
  EXPECT_EQ(d[2], 0);
}

TEST(QueryIndexTest, RejectsOutOfRangeNodes) {
  Built b = build(planar::Family::kCycle, 16, 1, 4);
  query::QueryEngine eng(b.graph, std::move(b.hierarchy), std::move(b.index));
  EXPECT_THROW((void)eng.distance(-1, 0), CheckError);
  EXPECT_THROW((void)eng.distance(0, b.graph.num_nodes()), CheckError);
}

// --------------------------------------------------------- determinism ----

TEST(QueryIndexTest, PersistedArtifactAnswersMatchLiveEngine) {
  Built b = build(planar::Family::kTriangulation, 80, 9, 8);
  io::Artifact a;
  a.add(io::SectionId::kHierarchy,
        io::encode_hierarchy({b.graph.num_nodes(), b.hierarchy}));
  a.add(io::SectionId::kQueryIndex, io::encode_query_index(b.index));
  const auto bytes = io::assemble(a);

  auto restored = query::engine_from_artifact_bytes(b.graph, bytes);
  query::QueryEngine live(b.graph, std::move(b.hierarchy),
                          std::move(b.index));
  std::vector<std::pair<planar::NodeId, planar::NodeId>> pairs;
  for (planar::NodeId u = 0; u < b.graph.num_nodes(); u += 3) {
    for (planar::NodeId v = 1; v < b.graph.num_nodes(); v += 7) {
      pairs.emplace_back(u, v);
    }
  }
  EXPECT_EQ(live.distances(pairs), restored->distances(pairs));
}

// --------------------------------------------------------- hierarchy ------

TEST(QueryIndexTest, LeafOfAccessorIsBoundsChecked) {
  Built b = build(planar::Family::kGrid, 25, 1, 4);
  for (planar::NodeId v = 0; v < b.graph.num_nodes(); ++v) {
    const int leaf = b.hierarchy.leaf_of(v);
    if (leaf >= 0) {
      EXPECT_LT(static_cast<std::size_t>(leaf), b.hierarchy.pieces.size());
    } else {
      EXPECT_TRUE(b.hierarchy.in_separator[static_cast<std::size_t>(v)]);
    }
  }
  EXPECT_THROW((void)b.hierarchy.leaf_of(-1), CheckError);
  EXPECT_THROW((void)b.hierarchy.leaf_of(b.hierarchy.num_nodes()),
               CheckError);
}

// -------------------------------------------------------- invalidation ----

// Picks an edge {a, b} whose endpoints' common ancestor-chain prefix is
// strictly shorter than the total piece count, so a kill dirties a proper
// subset of pieces.
std::pair<planar::NodeId, planar::NodeId> pick_edge(
    const planar::EmbeddedGraph& g) {
  for (planar::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const planar::DartId d : g.rotation(u)) {
      const planar::NodeId w = g.head(d);
      if (w > u) return {u, w};
    }
  }
  ADD_FAILURE() << "graph has no edges";
  return {0, 0};
}

TEST(QueryInvalidationTest, KillDirtiesOnlyCommonPrefixPieces) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* saved = obs::set_global_registry(&reg);

  Built b = build(planar::Family::kTriangulation, 96, 7, 8);
  const std::size_t total_pieces = b.hierarchy.pieces.size();
  const query::QueryIndex qi = b.index;  // keep a copy for chain lookups
  query::QueryEngine eng(b.graph, std::move(b.hierarchy),
                         std::move(b.index));

  const auto [a, bb] = pick_edge(b.graph);
  // The dirty set must be exactly the common prefix of the two chains.
  std::int64_t common = 0;
  {
    const auto len =
        std::min(qi.path_len(a), qi.path_len(bb));
    while (common < len &&
           qi.path_piece[static_cast<std::size_t>(qi.path_off[
               static_cast<std::size_t>(a)] + common)] ==
               qi.path_piece[static_cast<std::size_t>(qi.path_off[
                   static_cast<std::size_t>(bb)] + common)]) {
      ++common;
    }
  }
  ASSERT_GT(common, 0);

  eng.kill_edge(a, bb);
  const query::QueryCounters c = eng.counters();
  EXPECT_EQ(c.edges_killed, 1);
  EXPECT_EQ(c.pieces_dirtied, common);
  EXPECT_LT(static_cast<std::size_t>(c.pieces_dirtied), total_pieces)
      << "kill should dirty a proper subset of pieces";
  EXPECT_EQ(c.pieces_rebuilt, 0) << "rebuilds are lazy";
  EXPECT_EQ(eng.dirty_pieces(), common);

  // Killing the same edge again is a no-op.
  eng.kill_edge(a, bb);
  EXPECT_EQ(eng.counters().edges_killed, 1);
  EXPECT_EQ(eng.counters().pieces_dirtied, common);

  // A query whose chains meet the dirty prefix rebuilds it — and only it.
  (void)eng.distance(a, bb);
  const query::QueryCounters after = eng.counters();
  EXPECT_EQ(after.pieces_rebuilt, common);
  EXPECT_EQ(eng.dirty_pieces(), 0);
  EXPECT_EQ(reg.counter("query/pieces_rebuilt"), common);
  EXPECT_EQ(reg.counter("query/edges_killed"), 1);
  EXPECT_EQ(reg.counter("query/pieces_dirtied"), common);

  obs::set_global_registry(saved);
}

TEST(QueryInvalidationTest, PostKillAnswersMatchFilteredOracleAndFreshEngine) {
  for (const planar::Family f :
       {planar::Family::kGrid, planar::Family::kTriangulation,
        planar::Family::kOuterplanar}) {
    Built b = build(f, 64, 11, 8);
    query::QueryEngine eng(b.graph, b.hierarchy, b.index);

    query::EdgeSet killed;
    const auto [a, bb] = pick_edge(b.graph);
    eng.kill_edge(a, bb);
    killed.insert(a, bb);
    // A second kill exercises accumulation across rebuilds.
    const auto [c, dd] = pick_edge(b.graph);  // may equal the first: no-op
    eng.kill_edge(c, dd);
    killed.insert(c, dd);

    // A fresh engine with the same kills applied before any query: the
    // incremental engine must agree with it (and with the filtered BFS
    // oracle) on every pair.
    query::QueryEngine fresh(b.graph, std::move(b.hierarchy),
                             std::move(b.index));
    for (const auto key : killed.sorted_keys) {
      fresh.kill_edge(static_cast<planar::NodeId>(key >> 32),
                      static_cast<planar::NodeId>(key & 0xffffffffu));
    }

    for (planar::NodeId u = 0; u < b.graph.num_nodes(); u += 2) {
      const auto want = bfs_oracle(b.graph, u, &killed);
      for (planar::NodeId v = 0; v < b.graph.num_nodes(); ++v) {
        ASSERT_EQ(eng.distance(u, v), want[static_cast<std::size_t>(v)])
            << planar::family_name(f) << " u=" << u << " v=" << v;
        ASSERT_EQ(fresh.distance(u, v), want[static_cast<std::size_t>(v)])
            << planar::family_name(f) << " (fresh) u=" << u << " v=" << v;
      }
    }
  }
}

TEST(QueryInvalidationTest, KillingTreeEdgeDisconnects) {
  Built b = build(planar::Family::kRandomTree, 40, 13, 4);
  query::QueryEngine eng(b.graph, std::move(b.hierarchy),
                         std::move(b.index));
  const auto [a, bb] = pick_edge(b.graph);
  ASSERT_EQ(eng.distance(a, bb), 1);
  eng.kill_edge(a, bb);
  // A tree edge is a cut edge: the endpoints end up in different
  // components.
  EXPECT_EQ(eng.distance(a, bb), -1);
  EXPECT_FALSE(eng.reachable(a, bb));
  query::EdgeSet killed;
  killed.insert(a, bb);
  const auto want = bfs_oracle(b.graph, a, &killed);
  for (planar::NodeId v = 0; v < b.graph.num_nodes(); ++v) {
    ASSERT_EQ(eng.distance(a, v), want[static_cast<std::size_t>(v)]) << v;
  }
}

// ------------------------------------------------------------- service ----

TEST(QueryServiceTest, RunQueryJobColdThenWarmIsByteIdentical) {
  serve::ResultCache cache({1u << 22, ""});
  query::EngineCache engines(2);
  serve::BatchOptions opts;

  query::QueryJob job;
  job.instance.family = "triangulation";
  job.instance.n = 64;
  job.instance.seed = 4;
  job.leaf_size = 8;
  for (planar::NodeId u = 0; u < 64; u += 5) {
    job.pairs.emplace_back(u, (u * 7 + 3) % 64);
  }

  const query::QueryOutcome cold =
      query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(cold.status, "ok") << cold.error;
  EXPECT_FALSE(cold.engine_cache_hit);
  ASSERT_EQ(cold.distances.size(), job.pairs.size());

  const query::QueryOutcome warm =
      query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(warm.status, "ok") << warm.error;
  EXPECT_TRUE(warm.engine_cache_hit);
  EXPECT_EQ(cold.distances, warm.distances);
  EXPECT_GT(cache.counters().hits, 0);
}

TEST(QueryServiceTest, DiskTierWarmLoadsAcrossCacheInstances) {
  ScratchDir dir("disk");
  query::QueryJob job;
  job.instance.family = "grid";
  job.instance.n = 49;
  job.instance.seed = 2;
  job.leaf_size = 8;
  job.pairs = {{0, 48}, {3, 11}, {7, 7}};
  serve::BatchOptions opts;

  std::vector<std::int64_t> first;
  {
    serve::ResultCache cache({1u << 22, dir.path()});
    const auto out = query::run_query_job(job, opts, cache, nullptr);
    ASSERT_EQ(out.status, "ok") << out.error;
    first = out.distances;
    // Cold task-graph run: the spanning-tree sub-artifact and the index
    // itself both miss.
    EXPECT_EQ(cache.counters().misses, 2);
  }
  {
    // A new cache instance over the same disk dir: the artifact loads
    // from the disk tier, no recompute, same answers.
    serve::ResultCache cache({1u << 22, dir.path()});
    const auto out = query::run_query_job(job, opts, cache, nullptr);
    ASSERT_EQ(out.status, "ok") << out.error;
    EXPECT_EQ(out.distances, first);
    EXPECT_EQ(cache.counters().disk_hits, 1);
    EXPECT_EQ(cache.counters().misses, 0);
  }
}

TEST(QueryServiceTest, DeadEdgeJobsBypassTheEngineCache) {
  serve::ResultCache cache({1u << 22, ""});
  query::EngineCache engines(2);
  serve::BatchOptions opts;

  query::QueryJob job;
  job.instance.family = "cycle";
  job.instance.n = 24;
  job.instance.seed = 1;
  job.leaf_size = 4;
  job.pairs = {{0, 12}};

  const auto clean = query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(clean.status, "ok") << clean.error;
  EXPECT_EQ(clean.distances[0], 12);

  job.dead_edges = {{0, 1}};
  const auto cut = query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(cut.status, "ok") << cut.error;
  EXPECT_FALSE(cut.engine_cache_hit);
  // On a 24-cycle, cutting {0,1} forces the long way round.
  EXPECT_EQ(cut.distances[0], 12);
  job.pairs = {{0, 6}};
  const auto cut2 = query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(cut2.status, "ok") << cut2.error;
  EXPECT_EQ(cut2.distances[0], 18);  // 24 - 6, the long way

  // The shared engine stays kill-free: a clean re-run still answers 6.
  job.dead_edges.clear();
  const auto clean2 = query::run_query_job(job, opts, cache, &engines);
  ASSERT_EQ(clean2.status, "ok") << clean2.error;
  EXPECT_EQ(clean2.distances[0], 6);
  EXPECT_TRUE(clean2.engine_cache_hit);
}

TEST(QueryServiceTest, BadInputsReportErrorStatus) {
  serve::ResultCache cache({1u << 22, ""});
  serve::BatchOptions opts;

  query::QueryJob job;
  job.instance.family = "no_such_family";
  job.instance.n = 10;
  job.instance.seed = 1;
  auto out = query::run_query_job(job, opts, cache, nullptr);
  EXPECT_EQ(out.status, "error");
  EXPECT_NE(out.error.find("no_such_family"), std::string::npos);

  job.instance.family = "grid";
  job.instance.n = 25;
  job.pairs = {{0, 99}};
  out = query::run_query_job(job, opts, cache, nullptr);
  EXPECT_EQ(out.status, "error");
  EXPECT_TRUE(out.distances.empty());

  job.pairs = {{0, 1}};
  job.leaf_size = 0;
  out = query::run_query_job(job, opts, cache, nullptr);
  EXPECT_EQ(out.status, "error");
  EXPECT_NE(out.error.find("leaf size"), std::string::npos);
}

TEST(QueryServiceTest, EngineCacheEvictsLru) {
  query::EngineCache engines(1);
  Built b1 = build(planar::Family::kCycle, 12, 1, 4);
  Built b2 = build(planar::Family::kCycle, 16, 1, 4);
  const auto mk = [](Built& b) {
    return std::make_shared<query::QueryEngine>(
        b.graph, std::move(b.hierarchy), std::move(b.index));
  };
  auto e1 = engines.get_or_build(1, [&] { return mk(b1); });
  auto e1again = engines.get_or_build(1, [&] {
    ADD_FAILURE() << "builder must not re-run on a hit";
    return mk(b1);
  });
  EXPECT_EQ(e1.get(), e1again.get());
  (void)engines.get_or_build(2, [&] { return mk(b2); });  // evicts 1
  const auto c = engines.counters();
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.misses, 2);
  EXPECT_EQ(c.evictions, 1);
  EXPECT_EQ(engines.entries(), 1u);
}

}  // namespace
}  // namespace plansep
