// E18 (taskgraph) — the job stages on the serving pipeline.
// The workload is the sharing acceptance case: a two-algorithms-same-
// fingerprint batch (deterministic separator + BFS-level baseline on one
// instance), where the job stages build the spanning tree once and both
// algorithms consume its bytes. Reports the cold batch wall (min-of-reps,
// fresh cache per rep, corpus store included), the warm wall (everything
// cache-served) and the sub-result sharing counters. The bench hard-fails
// if the warm row stream differs from the cold one (byte-identity
// contract), if the cold batch runs the spanning tree more than once per
// fingerprint, or if the warm batch computes anything. Flags beyond
// bench_util's:
//   --corpus-dir=PATH  scratch corpus root the cold batches store their
//                      instance in (default taskgraph.bench.corpus, wiped
//                      per rep)

#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_util.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "taskgraph/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  // Two jobs per batch, so two worker shards is the natural default: the
  // second algorithm joins the first's spanning-tree flight instead of
  // finding it already cached.
  const int threads = bench::threads_arg(argc, argv, 2);
  const int reps = bench::reps_arg(argc, argv, 3);
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::string corpus_dir = "taskgraph.bench.corpus";
  if (const char* v = bench::flag_value(argc, argv, "corpus-dir")) {
    corpus_dir = v;
  }

  const std::vector<bench::SweepPoint> sweep =
      quick ? std::vector<bench::SweepPoint>{
                  {planar::Family::kGrid, 400},
                  {planar::Family::kTriangulation, 2000}}
            : std::vector<bench::SweepPoint>{
                  {planar::Family::kGrid, 6400},
                  {planar::Family::kTriangulation, 20000},
                  {planar::Family::kRandomPlanar, 20000},
                  {planar::Family::kTriangulation, 100000},
              };

  std::printf(
      "E18: job stages on two-algorithm batches (threads=%d%s)\n\n",
      threads, quick ? ", quick" : "");
  Table table({"family", "n", "cold ms", "warm ms", "st runs", "shared"});
  bench::BenchJson json("taskgraph");

  for (const bench::SweepPoint& pt : sweep) {
    const std::uint64_t seed = 1;
    std::vector<serve::JobSpec> jobs(2);
    jobs[0].family = planar::family_name(pt.family);
    jobs[0].n = pt.n;
    jobs[0].seed = seed;
    jobs[0].algo = serve::Algo::kSeparator;
    jobs[1] = jobs[0];
    jobs[1].algo = serve::Algo::kBaselineSeparator;

    // One cold batch: fresh in-memory cache, the corpus scratch wiped so
    // the store writes every time.
    serve::BatchOptions opts;
    opts.threads = threads;
    opts.corpus_dir = corpus_dir;
    const auto run_cold = [&] {
      std::filesystem::remove_all(corpus_dir);
      std::filesystem::create_directories(corpus_dir);
      serve::ResultCache cache({256u << 20, ""});
      return serve::run_batch(jobs, opts, cache);
    };

    // Instrumented cold run: the sharing counters.
    const serve::BatchReport cold = run_cold();
    if (cold.ok != 2) {
      std::fprintf(stderr, "bench_taskgraph: batch failed (%lld/2 ok)\n",
                   cold.ok);
      return 2;
    }
    const long long st_runs =
        cold.taskgraph.runs.count(taskgraph::kSpanningTreeTask)
            ? cold.taskgraph.runs.at(taskgraph::kSpanningTreeTask)
            : 0;
    const long long shared =
        static_cast<long long>(jobs.size()) - st_runs;
    if (st_runs != 1 || cold.cache.served_without_compute() <= 0) {
      std::fprintf(stderr,
                   "bench_taskgraph: no sub-result sharing on the cold "
                   "batch (spanning_tree runs=%lld, hits=%lld)\n",
                   st_runs, cold.cache.hits);
      return 2;
    }

    // Timed cold batches, then the warm batch over one kept cache.
    const double cold_ms = bench::min_wall_ms(reps, [&] { run_cold(); });

    serve::ResultCache warm_cache({256u << 20, ""});
    serve::BatchOptions warm_opts;
    warm_opts.threads = threads;
    (void)serve::run_batch(jobs, warm_opts, warm_cache);
    serve::BatchReport warm_report;
    const double warm_ms = bench::min_wall_ms(reps, [&] {
      warm_report = serve::run_batch(jobs, warm_opts, warm_cache);
    });
    if (warm_report.taskgraph.tasks_run != 0) {
      std::fprintf(stderr,
                   "bench_taskgraph: warm batch ran %lld compute bodies, "
                   "expected 0\n",
                   warm_report.taskgraph.tasks_run);
      return 2;
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (cold.results[j].row != warm_report.results[j].row) {
        std::fprintf(stderr,
                     "bench_taskgraph: warm row diverged from cold "
                     "(job %zu)\n  cold: %s\n  warm: %s\n",
                     j, cold.results[j].row.c_str(),
                     warm_report.results[j].row.c_str());
        return 2;
      }
    }

    table.add(planar::family_name(pt.family), pt.n, cold_ms, warm_ms,
              st_runs, shared);
    json.row()
        .set("kind", "taskgraph")
        .set("workload", "two-algo-pair")
        .set("family", planar::family_name(pt.family))
        .set("n", pt.n)
        .set("threads", threads)
        .set("host_cores", host_cores)
        .set("seed", static_cast<long long>(seed))
        .set("jobs", static_cast<long long>(jobs.size()))
        .set("dag_wall_ms", cold_ms)
        .set("dag_warm_wall_ms", warm_ms)
        .set("tasks_run", cold.taskgraph.tasks_run)
        .set("cache_served", cold.taskgraph.cache_served)
        .set("spanning_tree_runs", st_runs)
        .set("shared_subresults", shared)
        .set("flight_joins", cold.cache.flight_joins)
        .set("cache_hits", cold.cache.hits)
        .set("warm_cache_served", warm_report.taskgraph.cache_served);
  }

  std::filesystem::remove_all(corpus_dir);
  table.print();
  json.write(bench::json_path_arg(argc, argv, "taskgraph"));
  std::printf(
      "\nExpectation: the cold batch builds the spanning tree once and\n"
      "both algorithms consume its bytes (st runs=1, shared=1); the warm\n"
      "batch is served entirely from cache, with rows byte-identical to the\n"
      "cold ones (checked above).\n");
  return 0;
}
