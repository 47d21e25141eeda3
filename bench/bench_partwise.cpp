// E9 — the part-wise aggregation engine (Proposition 4 substitute):
// measured rounds as a function of the number of parts, against the
// theoretical O(D) charge. Parts are BFS-depth bands (connected within
// each component of a band), a congestion-friendly shape, and random
// subtree decompositions, a congestion-hostile one.

#include <cstdio>

#include "bench_util.hpp"
#include "shortcuts/partwise_message.hpp"

namespace {

using namespace plansep;

std::pair<std::vector<int>, int> band_parts(const planar::EmbeddedGraph& g,
                                            const congest::BfsResult& bfs,
                                            int bands) {
  // Depth bands, refined to connected components.
  std::vector<int> band(g.num_nodes());
  const int width = std::max(1, (bfs.height + 1) / bands);
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    band[v] = bfs.depth[v] / width;
  }
  std::vector<int> label(g.num_nodes(), -1);
  int parts = 0;
  for (planar::NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] >= 0) continue;
    const int id = parts++;
    std::vector<planar::NodeId> stack{s};
    label[s] = id;
    while (!stack.empty()) {
      const planar::NodeId v = stack.back();
      stack.pop_back();
      for (planar::DartId d : g.rotation(v)) {
        const planar::NodeId w = g.head(d);
        if (label[w] < 0 && band[w] == band[v]) {
          label[w] = id;
          stack.push_back(w);
        }
      }
    }
  }
  return {label, parts};
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  bench::BenchJson json("partwise");
  const int n = quick ? 400 : 4000;

  std::printf("E9: part-wise aggregation rounds vs number of parts (n=%d)\n\n",
              n);
  Table table({"family", "parts", "D<=", "measured", "msg-level", "charged",
               "meas/D"});
  for (planar::Family f :
       {planar::Family::kGrid, planar::Family::kTriangulation}) {
    const auto gg = planar::make_instance(f, n, 1);
    shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
    for (int bands : {1, 4, 16, 64}) {
      auto [part, parts] = band_parts(gg.graph, engine.global_tree(), bands);
      std::vector<std::int64_t> ones(gg.graph.num_nodes(), 1);
      const auto res = engine.aggregate(part, ones, shortcuts::AggOp::kSum);
      // The same global-tree protocol executed message-by-message on the
      // CONGEST simulator.
      const auto msg = shortcuts::message_level_aggregate(
          gg.graph, engine.global_tree(), part, ones, shortcuts::AggOp::kSum);
      table.add(planar::family_name(f), parts, engine.diameter_bound(),
                res.cost.measured, msg.rounds, res.cost.charged,
                static_cast<double>(res.cost.measured) /
                    std::max(1, engine.diameter_bound()));
      json.row()
          .set("kind", "partwise")
          .set("family", planar::family_name(f))
          .set("n", n)
          .set("bands", bands)
          .set("parts", parts)
          .set("diameter_bound", engine.diameter_bound())
          .set("rounds_measured", res.cost.measured)
          .set("rounds_msg_level", msg.rounds)
          .set("rounds_charged", res.cost.charged);
    }
  }
  table.print();
  json.write(bench::json_path_arg(argc, argv, "partwise"));
  std::printf(
      "\nExpectation: with HHW shortcuts every row would be Otilde(D)\n"
      "(the charged column). `measured` is min(intra-part, global pipeline);\n"
      "`msg-level` is the global pipeline alone, executed message-by-message\n"
      "— it exposes the congestion cost (many parts through one tree) that\n"
      "the intra-part strategy sidesteps and real shortcuts schedule away.\n");
  return 0;
}
