// E3 — Theorem 2: DFS trees in Õ(D) rounds, O(log n) outer phases.
//
// Section 1: end-to-end DFS construction per family × size — rounds under
// both accountings, outer phase count vs log2 n, validity of the result.
//
// Section 2: wall-clock of the message-level round engine on large
// triangulation/grid instances (n up to ~100k), next to the round and
// message counts it produced. Timings are min-of-`--reps` (default 3) so
// the CI perf-regression gate (bench/bench_gate.py) compares
// noise-tolerant numbers, and every row carries the host shape it ran on
// (host_cores, reps) so baseline rows are self-describing and matchable.
//
// Emits dfs_rounds.bench.json (override with --json=PATH).

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <thread>

#include "bench_util.hpp"
#include "shortcuts/partwise_message.hpp"

namespace {

using namespace plansep;

struct EngineTiming {
  int rounds = 0;
  long long messages = 0;
  double wall_ms = 0;
};

// Runs fn `reps` times; keeps fn's observable counts (identical across
// repetitions — the engine is deterministic) and the minimum wall time.
template <typename Fn>
EngineTiming timed_run(int reps, const Fn& fn) {
  EngineTiming t;
  t.wall_ms = bench::min_wall_ms(reps, [&] { t = fn(); });
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  const int reps = bench::reps_arg(argc, argv, quick ? 1 : 3);
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bench::BenchJson json("dfs_rounds");

  // Host-shape stamp shared by every row (the gate matches baseline rows
  // on host_cores).
  const auto stamp = [&](obs::RowsJson::Row& row) -> obs::RowsJson::Row& {
    return row.set("host_cores", host_cores).set("reps", reps);
  };

  std::printf("E3: DFS construction rounds and phases (Theorem 2)\n\n");
  Table table({"family", "n", "D<=", "valid", "phases", "lg n", "measured",
               "charged", "chg/(D*lg^2 n)"});
  for (const auto& pt : bench::standard_sweep(quick)) {
    const auto gg = planar::make_instance(pt.family, pt.n, 1);
    bench::WallTimer timer;
    const auto run = compute_dfs_tree(gg.graph, gg.root_hint);
    const double wall_ms = timer.ms();
    const double d = std::max(1, run.diameter_bound);
    table.add(planar::family_name(pt.family), gg.graph.num_nodes(),
              run.diameter_bound, run.check.ok(), run.build.phases,
              std::log2(std::max(2, gg.graph.num_nodes())),
              run.build.cost.measured, run.build.cost.charged,
              static_cast<double>(run.build.cost.charged) /
                  (d * bench::polylog2(gg.graph.num_nodes())));
    auto& row = json.row()
                    .set("kind", "dfs_analytic")
                    .set("family", planar::family_name(pt.family))
                    .set("n", gg.graph.num_nodes())
                    .set("diameter_bound", run.diameter_bound)
                    .set("valid", run.check.ok())
                    .set("phases", run.build.phases)
                    .set("rounds_measured", run.build.cost.measured)
                    .set("rounds_charged", run.build.cost.charged)
                    .set("wall_ms", wall_ms);
    stamp(row);
  }
  table.print();
  std::printf(
      "\nPaper expectation: valid DFS everywhere, phases = O(log n),\n"
      "charged rounds = Otilde(D) (bounded last column).\n");

  // ---------------------------------------------------- round engine --
  std::printf("\nRound engine wall clock, min of %d reps\n\n", reps);
  Table engine_table({"workload", "family", "n", "rounds", "messages", "ms"});

  std::vector<bench::SweepPoint> big = quick
      ? std::vector<bench::SweepPoint>{{planar::Family::kTriangulation, 2000},
                                       {planar::Family::kGrid, 2025}}
      : std::vector<bench::SweepPoint>{
            {planar::Family::kTriangulation, 50000},
            {planar::Family::kGrid, 50176},
            {planar::Family::kGridDiagonals, 50176},
            {planar::Family::kTriangulation, 100000},
            {planar::Family::kGrid, 100489},
            {planar::Family::kGridDiagonals, 100489}};
  for (const auto& pt : big) {
    const auto gg = planar::make_instance(pt.family, pt.n, 1);
    const auto& g = gg.graph;

    // Workload A: the BFS wave (frontier-parallel rounds).
    const auto run_bfs = [&] {
      const congest::BfsResult bfs = congest::distributed_bfs(g, gg.root_hint);
      return EngineTiming{bfs.rounds, bfs.messages, 0};
    };
    // Workload B: message-level part-wise aggregation over the BFS tree —
    // every node active for many rounds, the heaviest per-round work the
    // simulator runs.
    const congest::BfsResult tree = congest::distributed_bfs(g, gg.root_hint);
    std::vector<int> part(static_cast<std::size_t>(g.num_nodes()));
    std::vector<std::int64_t> value(static_cast<std::size_t>(g.num_nodes()));
    for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
      part[static_cast<std::size_t>(v)] = v % 32;
      value[static_cast<std::size_t>(v)] = (11 * v) % 257;
    }
    const auto run_agg = [&] {
      const shortcuts::MessageAggregateResult res =
          shortcuts::message_level_aggregate(g, tree, part, value,
                                             shortcuts::AggOp::kSum);
      return EngineTiming{res.rounds, res.messages, 0};
    };

    struct Workload {
      const char* name;
      const std::function<EngineTiming()> fn;
    };
    for (const auto& [name, fn] : std::initializer_list<Workload>{
             {"bfs_wave", run_bfs}, {"aggregate", run_agg}}) {
      const EngineTiming t = timed_run(reps, fn);
      engine_table.add(name, planar::family_name(pt.family), g.num_nodes(),
                       t.rounds, t.messages, t.wall_ms);
      auto& row = json.row()
                      .set("kind", "engine")
                      .set("workload", name)
                      .set("family", planar::family_name(pt.family))
                      .set("n", g.num_nodes())
                      .set("rounds", t.rounds)
                      .set("messages", t.messages)
                      .set("wall_ms", t.wall_ms);
      stamp(row);
    }
  }
  engine_table.print();
  std::printf(
      "\nRounds and messages are exact (bench_gate.py compares them to the\n"
      "baseline on any host); wall_ms is gated per host shape.\n");

  json.write(bench::json_path_arg(argc, argv, "dfs_rounds"));
  return 0;
}
