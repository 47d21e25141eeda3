// plansep_cli — run the library on your own graph.
//
//   plansep_cli separator < edges.txt      cycle separator (JSON)
//   plansep_cli dfs       < edges.txt      DFS tree (JSON)
//   plansep_cli dot       < edges.txt      Graphviz DOT with the separator
//   plansep_cli check     < edges.txt      planarity verdict only
//
// Input: an edge list read through the ingest front door (docs/INGEST.md):
// one "u v" edge per line, '#' comments, arbitrary non-negative 64-bit
// ids, DIMACS accepted too. Output node ids are ingest's canonical ids:
// the rank of each input id among all input ids (the smallest is 0, the
// root). The graph must be planar and, for separator/dfs/dot, connected.
//
// Exit codes: 0 success, 1 not planar / not connected / a check failed,
// 2 the input was rejected (the typed ingest reason on stderr) or an
// unknown mode.

#include <cstdio>
#include <iostream>
#include <string>

#include "core/plansep.hpp"
#include "ingest/pipeline.hpp"
#include "io/text.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  const std::string mode = argc > 1 ? argv[1] : "separator";
  if (mode != "separator" && mode != "dfs" && mode != "dot" &&
      mode != "check") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }

  planar::EmbeddedGraph g;
  try {
    g = ingest::ingest_text(std::cin, {}).graph;
  } catch (const ingest::IngestError& e) {
    if (e.code() != ingest::IngestErrorCode::kNonPlanar) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (mode == "check") {
      std::printf("{\"planar\":false,\"witness_edges\":%zu}\n",
                  e.witness().size());
    } else {
      std::fprintf(stderr, "%s\n", e.what());
    }
    return 1;
  }
  if (mode == "check") {
    std::printf("{\"planar\":true,\"n\":%d,\"m\":%d}\n", g.num_nodes(),
                g.num_edges());
    return 0;
  }
  if (g.num_components() != 1) {
    std::fprintf(stderr, "input graph must be connected for %s\n",
                 mode.c_str());
    return 1;
  }

  if (mode == "separator" || mode == "dot") {
    const SeparatorRun run = compute_cycle_separator(g, 0);
    if (mode == "dot") {
      std::vector<char> mark(g.num_nodes(), 0);
      for (planar::NodeId v : run.separator.path) mark[v] = 1;
      std::fputs(io::to_dot(g, mark).c_str(), stdout);
      return 0;
    }
    std::printf(
        "{\"separator\":%s,\"balance\":%.4f,\"phase\":%d,"
        "\"rounds_measured\":%lld,\"rounds_charged\":%lld,\"diameter\":%d}\n",
        io::nodes_to_json(run.separator.path).c_str(), run.check.balance,
        run.separator.phase, run.cost.measured, run.cost.charged,
        run.diameter_bound);
    return run.check.ok() ? 0 : 1;
  }
  const DfsRun run = compute_dfs_tree(g, 0);
  std::printf("%s\n", io::dfs_to_json(run.build.tree).c_str());
  return run.check.ok() ? 0 : 1;
}
