// E16 (serving) — the query engine: answer distance queries from the
// persisted separator-hierarchy index and compare against the only
// alternative the pipeline offers, re-running the hierarchy build per
// query. Reports the cold job cost (generate + build + index + answer),
// the warm batch wall (min-of-reps), qps, per-query latency percentiles,
// and the warm-vs-pipeline speedup. Flags beyond bench_util's:
//   --cache-dir=PATH  disk tier for the artifact cache (cold runs in a
//                     fresh process then warm-load from disk)
//   --queries=Q       schedule length per sweep point
// The final `answers_crc=...` line digests every distance returned across
// the sweep; CI runs the bench twice and cmp's the two lines (answers
// must be byte-identical across cache temperature).

#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "core/fingerprint.hpp"
#include "io/artifact.hpp"
#include "io/binary.hpp"
#include "query/service.hpp"
#include "serve/cache.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = bench::reps_arg(argc, argv, 3);
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::string cache_dir;
  if (const char* v = bench::flag_value(argc, argv, "cache-dir")) {
    cache_dir = v;
  }

  struct Point {
    planar::Family family;
    int n;
    int leaf;
  };
  // The 100k triangulation point is the acceptance anchor: warm indexed
  // queries must beat per-query pipeline runs by >= 100x there. Grids are
  // capped at 20k — their near-square pieces make the distance blocks
  // quadratic-ish in the leaf count and the index balloons past 100k.
  const std::vector<Point> sweep =
      quick ? std::vector<Point>{{planar::Family::kGrid, 900, 32},
                                 {planar::Family::kTriangulation, 2000, 32}}
            : std::vector<Point>{
                  {planar::Family::kGrid, 10000, 64},
                  {planar::Family::kGrid, 20000, 64},
                  {planar::Family::kTriangulation, 20000, 64},
                  {planar::Family::kTriangulation, 100000, 128},
                  {planar::Family::kRandomPlanar, 50000, 128},
              };
  const int queries = [&] {
    if (const char* v = bench::flag_value(argc, argv, "queries")) {
      return std::max(1, std::atoi(v));
    }
    return quick ? 2000 : 50000;
  }();

  std::printf("E16: query engine over the hierarchy index%s\n\n",
              quick ? " (quick)" : "");
  Table table({"family", "n", "leaf", "cold ms", "warm ms", "qps", "p50 us",
               "p99 us", "speedup"});
  bench::BenchJson json("query");

  serve::ResultCache cache({256u << 20, cache_dir});
  query::EngineCache engines(4);
  const serve::BatchOptions bopts;
  std::uint32_t answers_crc = 0;

  for (const Point& pt : sweep) {
    const std::uint64_t seed = 1;
    query::QueryJob job;
    job.instance.family = planar::family_name(pt.family);
    job.instance.n = pt.n;
    job.instance.seed = seed;
    job.leaf_size = pt.leaf;

    // Seed-pure query schedule: the pair stream is a function of
    // (family, n, seed) only, so reruns and CI smoke answer the exact
    // same questions.
    const auto gg = planar::make_instance(pt.family, pt.n, seed);
    const planar::NodeId n = gg.graph.num_nodes();
    Rng rng(core::mix_seed(0x71756572790000ULL /* "query" */,
                           static_cast<std::uint64_t>(pt.n), seed));
    job.pairs.reserve(static_cast<std::size_t>(queries));
    for (int i = 0; i < queries; ++i) {
      job.pairs.emplace_back(
          static_cast<planar::NodeId>(rng.next_below(
              static_cast<std::uint64_t>(n))),
          static_cast<planar::NodeId>(rng.next_below(
              static_cast<std::uint64_t>(n))));
    }

    // Cold: one job paying the whole pipeline (generate, hierarchy,
    // index, persist, answer). With --cache-dir and a prior run's
    // artifacts on disk this becomes a disk-tier warm load instead —
    // the cold/warm smoke relies on exactly that.
    bench::WallTimer cold_timer;
    const query::QueryOutcome cold =
        query::run_query_job(job, bopts, cache, &engines);
    const double cold_ms = cold_timer.ms();
    if (cold.status != "ok") {
      std::fprintf(stderr, "bench_query: cold job failed: %s\n",
                   cold.error.c_str());
      return 2;
    }

    // Warm: the artifact and the prepared engine are hot.
    const double warm_ms = bench::min_wall_ms(reps, [&] {
      const query::QueryOutcome warm =
          query::run_query_job(job, bopts, cache, &engines);
      if (warm.status != "ok" || !warm.engine_cache_hit) {
        std::fprintf(stderr, "bench_query: warm run missed the engine\n");
        std::exit(2);
      }
    });

    // Fold the cold answers into the sweep digest (cold == warm is
    // asserted by the engine-cache path sharing one decode).
    for (const std::int64_t d : cold.distances) {
      std::uint8_t b[8];
      for (int i = 0; i < 8; ++i) {
        b[i] = static_cast<std::uint8_t>(
            (static_cast<std::uint64_t>(d) >> (8 * i)) & 0xff);
      }
      answers_crc ^= io::crc32(b, sizeof b);
      answers_crc = (answers_crc << 1) | (answers_crc >> 31);
    }

    // Per-query latency percentiles over the prepared engine, and the
    // index footprint from the persisted artifact.
    const serve::CacheKey key = query::index_cache_key(
        core::topology_fingerprint(gg.graph), gg.root_hint, pt.leaf);
    const auto bytes = cache.get_or_compute(
        key, [&]() -> std::vector<std::uint8_t> {
          std::fprintf(stderr,
                       "bench_query: artifact fell out of the cache\n");
          std::exit(2);
          return {};
        });
    auto engine = query::engine_from_artifact_bytes(gg.graph, *bytes);
    const std::size_t index_bytes = engine->index().byte_size();
    std::vector<double> lat_us;
    lat_us.reserve(job.pairs.size());
    bench::WallTimer lat_timer;
    for (const auto& [u, v] : job.pairs) {
      lat_timer.reset();
      (void)engine->distance(u, v);
      lat_us.push_back(lat_timer.ms() * 1000.0);
    }
    std::sort(lat_us.begin(), lat_us.end());
    const double p50_us = lat_us[lat_us.size() / 2];
    const double p99_us = lat_us[lat_us.size() * 99 / 100];

    const double warm_per_query_ms =
        warm_ms / static_cast<double>(queries);
    const double qps = 1000.0 / warm_per_query_ms;
    // The un-indexed alternative answers every query with its own
    // pipeline run; the cold job above is one such run.
    const double speedup = cold_ms / warm_per_query_ms;

    table.add(planar::family_name(pt.family), n, pt.leaf, cold_ms, warm_ms,
              qps, p50_us, p99_us, speedup);
    json.row()
        .set("kind", "query")
        .set("workload", "leaf" + std::to_string(pt.leaf))
        .set("family", planar::family_name(pt.family))
        .set("n", n)
        .set("host_cores", host_cores)
        .set("seed", static_cast<long long>(seed))
        .set("queries", queries)
        .set("leaf_size", pt.leaf)
        .set("index_bytes", static_cast<long long>(index_bytes))
        .set("cold_job_ms", cold_ms)
        .set("warm_wall_ms", warm_ms)
        .set("qps", qps)
        .set("p50_us", p50_us)
        .set("p99_us", p99_us)
        .set("speedup_vs_pipeline", speedup);
  }

  table.print();
  json.write(bench::json_path_arg(argc, argv, "query"));
  const auto ec = engines.counters();
  std::printf(
      "\nengine cache: %lld hits, %lld misses; answers_crc=%08x\n"
      "Expectation: the cold job pays the full pipeline once; warm batches\n"
      "answer from the persisted index at >= 100x per-query speedup on the\n"
      "large points (the serve-answers-not-runs contract).\n",
      ec.hits, ec.misses, answers_crc);
  return 0;
}
