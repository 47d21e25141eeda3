// E8 — ablation of the deterministic weight formula (Definition 2): the
// closed form is endpoint-local (O(deg) work after the orders exist),
// versus the brute-force region count (the oracle: full face tracing +
// dual BFS per edge, as a centralized algorithm would do). Wall-clock per
// 1000 fundamental edges.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  using Clock = std::chrono::steady_clock;
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  bench::BenchJson json("weights");

  std::printf("E8: Definition 2 closed form vs brute-force region count\n\n");
  Table table({"family", "n", "edges", "formula.us/edge", "oracle.us/edge",
               "speedup", "agree"});
  std::vector<bench::SweepPoint> sweep = {
      {planar::Family::kTriangulation, quick ? 100 : 400},
      {planar::Family::kGrid, quick ? 100 : 400},
      {planar::Family::kRandomPlanar, quick ? 100 : 400},
  };
  for (const auto& pt : sweep) {
    const auto gg = planar::make_instance(pt.family, pt.n, 1);
    const auto t = tree::RootedSpanningTree::bfs(gg.graph, gg.root_hint);
    const faces::FaceOracle oracle(t);
    const auto fund = faces::real_fundamental_edges(t);
    std::vector<faces::FundamentalEdge> fes;
    for (auto e : fund) fes.push_back(faces::analyze_fundamental_edge(t, e));

    const tree::NodeWeights unit(t);
    auto t0 = Clock::now();
    long long sum_formula = 0;
    for (const auto& fe : fes) {
      sum_formula += faces::face_weight(unit, faces::face_data(t, fe));
    }
    const double us_formula =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        std::max<std::size_t>(1, fes.size());

    t0 = Clock::now();
    long long sum_oracle = 0;
    bool agree = true;
    for (const auto& fe : fes) {
      const auto region = oracle.real_face(fe);
      const long long w = oracle.lemma_weight(fe.u, fe.v, region);
      sum_oracle += w;
      agree = agree &&
              (w == faces::face_weight(unit, faces::face_data(t, fe)));
    }
    const double us_oracle =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        std::max<std::size_t>(1, fes.size());

    table.add(planar::family_name(pt.family), gg.graph.num_nodes(),
              static_cast<int>(fes.size()), us_formula, us_oracle,
              us_oracle / std::max(1e-9, us_formula),
              agree && sum_formula == sum_oracle);
    json.row()
        .set("kind", "weight_formula")
        .set("family", planar::family_name(pt.family))
        .set("n", gg.graph.num_nodes())
        .set("edges", static_cast<int>(fes.size()))
        .set("formula_us_per_edge", us_formula)
        .set("oracle_us_per_edge", us_oracle)
        .set("speedup", us_oracle / std::max(1e-9, us_formula))
        .set("agree", agree && sum_formula == sum_oracle);
  }
  table.print();
  json.write(bench::json_path_arg(argc, argv, "weights"));
  std::printf(
      "\nExpectation: agreement everywhere (Lemmas 3/4); the closed form is\n"
      "orders of magnitude cheaper — distributively it is the difference\n"
      "between O(1) local work and re-simulating the whole face.\n");
  return 0;
}
