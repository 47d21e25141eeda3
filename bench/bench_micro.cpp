// Micro-benchmarks (google-benchmark) of the hot primitives: rotation
// system construction, face tracing, tree representation, Definition 2
// weights, Remark 1 membership, part-wise aggregation, BFS waves.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.hpp"
#include "core/plansep.hpp"

namespace {

using namespace plansep;

planar::GeneratedGraph make_tri(int n) {
  Rng rng(7);
  return planar::stacked_triangulation(n, rng);
}

void BM_EmbeddingFromCoordinates(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto gg = planar::grid(side, side);
  std::vector<std::pair<planar::NodeId, planar::NodeId>> edges;
  for (planar::EdgeId e = 0; e < gg.graph.num_edges(); ++e) {
    edges.emplace_back(gg.graph.edge_u(e), gg.graph.edge_v(e));
  }
  for (auto _ : state) {
    auto g = planar::EmbeddedGraph::from_coordinates(gg.graph.coordinates(),
                                                     edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_EmbeddingFromCoordinates)->Arg(16)->Arg(48);

void BM_FaceTracing(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    planar::FaceStructure fs(gg.graph);
    benchmark::DoNotOptimize(fs.num_faces());
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_darts());
}
BENCHMARK(BM_FaceTracing)->Arg(1000)->Arg(8000);

void BM_RootedTreeBuild(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto t = tree::RootedSpanningTree::bfs(gg.graph, gg.root_hint);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_nodes());
}
BENCHMARK(BM_RootedTreeBuild)->Arg(1000)->Arg(8000);

void BM_FaceWeights(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  const auto t = tree::RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  const tree::NodeWeights unit(t);
  std::vector<faces::FundamentalEdge> fes;
  for (auto e : faces::real_fundamental_edges(t)) {
    fes.push_back(faces::analyze_fundamental_edge(t, e));
  }
  for (auto _ : state) {
    long long acc = 0;
    for (const auto& fe : fes) {
      acc += faces::face_weight(unit, faces::face_data(t, fe));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * fes.size());
}
BENCHMARK(BM_FaceWeights)->Arg(1000)->Arg(8000);

void BM_MembershipClassify(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  const auto t = tree::RootedSpanningTree::bfs(gg.graph, gg.root_hint);
  const auto fund = faces::real_fundamental_edges(t);
  const auto fe = faces::analyze_fundamental_edge(t, fund.front());
  const auto fd = faces::face_data(t, fe);
  for (auto _ : state) {
    int inside = 0;
    for (planar::NodeId v : t.nodes()) {
      inside += faces::classify_node(fd, faces::node_data(t, v)) ==
                faces::FaceSide::kInside;
    }
    benchmark::DoNotOptimize(inside);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_nodes());
}
BENCHMARK(BM_MembershipClassify)->Arg(1000)->Arg(8000);

void BM_PartwiseAggregate(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  std::vector<int> part(gg.graph.num_nodes(), 0);
  std::vector<std::int64_t> ones(gg.graph.num_nodes(), 1);
  for (auto _ : state) {
    auto res = engine.aggregate(part, ones, shortcuts::AggOp::kSum);
    benchmark::DoNotOptimize(res.value[0]);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_nodes());
}
BENCHMARK(BM_PartwiseAggregate)->Arg(1000)->Arg(8000);

void BM_DistributedBfsWave(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto res = congest::distributed_bfs(gg.graph, gg.root_hint);
    benchmark::DoNotOptimize(res.height);
  }
  state.SetItemsProcessed(state.iterations() * gg.graph.num_edges());
}
BENCHMARK(BM_DistributedBfsWave)->Arg(1000)->Arg(8000);

void BM_WholeSeparator(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto run = compute_cycle_separator(gg.graph, gg.root_hint);
    benchmark::DoNotOptimize(run.separator.path.size());
  }
}
BENCHMARK(BM_WholeSeparator)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_WholeDfs(benchmark::State& state) {
  const auto gg = make_tri(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto run = compute_dfs_tree(gg.graph, gg.root_hint);
    benchmark::DoNotOptimize(run.build.phases);
  }
}
BENCHMARK(BM_WholeDfs)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every run mirrored into the shared
/// *.bench.json row schema (bench_util.hpp) like the table benches.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  TeeReporter() : json("micro") {}
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      json.row()
          .set("kind", "micro")
          .set("name", run.benchmark_name())
          .set("iterations", static_cast<long long>(run.iterations))
          .set("real_time", run.GetAdjustedRealTime())
          .set("cpu_time", run.GetAdjustedCPUTime())
          .set("time_unit", benchmark::GetTimeUnitString(run.time_unit))
          .set("items_per_second",
               run.counters.find("items_per_second") != run.counters.end()
                   ? static_cast<double>(
                         run.counters.at("items_per_second"))
                   : 0.0);
    }
  }
  plansep::bench::BenchJson json;
};

}  // namespace

int main(int argc, char** argv) {
  plansep::bench::ObsSession obs(argc, argv);
  const std::string json_path =
      plansep::bench::json_path_arg(argc, argv, "micro");
  // Strip the repo-wide flags before handing argv to google-benchmark
  // (its Initialize rejects flags it does not know).
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0 ||
        std::strncmp(argv[i], "--metrics-out=", 14) == 0 ||
        std::strncmp(argv[i], "--trace-out=", 12) == 0 ||
        std::strncmp(argv[i], "--threads=", 10) == 0 ||
        std::strcmp(argv[i], "--quick") == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  TeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.json.write(json_path);
  benchmark::Shutdown();
  return 0;
}
