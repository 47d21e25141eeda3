// E11 (extension) — recursive separator decomposition (the Lipton–Tarjan
// application the paper's introduction motivates): levels, separator
// fraction and costs as a function of the leaf size.

#include <cstdio>

#include "bench_util.hpp"
#include "query/index.hpp"
#include "separator/hierarchy.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  bench::BenchJson json("hierarchy");
  const int n = quick ? 300 : 3000;

  std::printf("E11: separator hierarchy vs leaf size (n=%d)\n\n", n);
  Table table({"family", "leaf", "levels", "lg(n/leaf)", "pieces", "sep%",
               "measured", "charged", "build ms", "index ms", "index MB"});
  for (planar::Family f :
       {planar::Family::kGrid, planar::Family::kTriangulation,
        planar::Family::kRandomPlanar}) {
    const auto gg = planar::make_instance(f, n, 1);
    for (int leaf : {8, 32, 128}) {
      shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
      bench::WallTimer build_timer;
      const auto h = separator::build_hierarchy(gg.graph, engine, leaf);
      const double build_ms = build_timer.ms();
      int leaves = 0;
      for (const auto& piece : h.pieces) leaves += piece.is_leaf();
      // The query tier's index build rides the same decomposition; its
      // cost and footprint belong in the leaf-size tradeoff picture.
      bench::WallTimer index_timer;
      const auto qi = query::build_query_index(gg.graph, h, leaf);
      const double index_ms = index_timer.ms();
      table.add(planar::family_name(f), leaf, h.levels,
                std::log2(static_cast<double>(gg.graph.num_nodes()) / leaf),
                leaves,
                100.0 * h.separator_nodes / gg.graph.num_nodes(),
                h.cost.measured, h.cost.charged, build_ms, index_ms,
                static_cast<double>(qi.byte_size()) / (1 << 20));
      json.row()
          .set("kind", "hierarchy")
          .set("family", planar::family_name(f))
          .set("n", gg.graph.num_nodes())
          .set("leaf_size", leaf)
          .set("levels", h.levels)
          .set("pieces", leaves)
          .set("pieces_total", static_cast<long long>(h.pieces.size()))
          .set("separator_pct",
               100.0 * h.separator_nodes / gg.graph.num_nodes())
          .set("rounds_measured", h.cost.measured)
          .set("rounds_charged", h.cost.charged)
          .set("build_ms", build_ms)
          .set("index_build_ms", index_ms)
          .set("index_bytes", static_cast<long long>(qi.byte_size()));
    }
  }
  table.print();
  json.write(bench::json_path_arg(argc, argv, "hierarchy"));
  std::printf(
      "\nExpectation: levels track log(n/leaf) (2/3 shrinkage per level);\n"
      "smaller leaves spend more nodes on separators — the classic\n"
      "divide-and-conquer tradeoff.\n");
  return 0;
}
