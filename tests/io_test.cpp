// Tests for the I/O glue: DOT export, JSON summaries, and an edge list
// run end to end through ingest (whose own suite covers the parser).

#include <gtest/gtest.h>

#include <sstream>

#include "core/plansep.hpp"
#include "ingest/pipeline.hpp"
#include "io/text.hpp"

namespace plansep::io {
namespace {

TEST(Io, DotContainsNodesEdgesAndHighlights) {
  const auto gg = planar::cycle(4);
  std::vector<char> mark(4, 0);
  mark[2] = 1;
  const std::string dot = to_dot(gg.graph, mark);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);
}

TEST(Io, DotMarksTreeEdgesBold) {
  const auto gg = planar::path(3);
  dfs::PartialDfsTree tree(gg.graph, 0);
  tree.attach_path(0, {1});
  tree.attach_path(1, {2});
  const std::string dot = to_dot(gg.graph, {}, &tree);
  EXPECT_NE(dot.find("penwidth"), std::string::npos);
}

TEST(Io, DfsJsonRoundTripShape) {
  const auto gg = planar::path(3);
  const DfsRun run = compute_dfs_tree(gg.graph, 0);
  const std::string json = dfs_to_json(run.build.tree);
  EXPECT_EQ(json,
            "{\"root\":0,\"parent\":[-1,0,1],\"depth\":[0,1,2]}");
  EXPECT_EQ(nodes_to_json({3, 1, 4}), "[3,1,4]");
}

TEST(Io, EndToEndThroughEdgeListAndDmp) {
  // Feed a grid through the text pipeline: serialize, ingest (parse and
  // DMP embedding), run.
  const auto gg = planar::grid(5, 5);
  std::ostringstream os;
  for (planar::EdgeId e = 0; e < gg.graph.num_edges(); ++e) {
    os << 100 + gg.graph.edge_u(e) << ' ' << 100 + gg.graph.edge_v(e) << '\n';
  }
  const ingest::IngestResult in = ingest::ingest_string(os.str(), {});
  EXPECT_EQ(in.graph.num_nodes(), 25);
  EXPECT_EQ(in.graph.num_edges(), gg.graph.num_edges());
  const SeparatorRun run = compute_cycle_separator(in.graph, 0);
  EXPECT_TRUE(run.check.ok());
}

}  // namespace
}  // namespace plansep::io
