// Tests for the observability subsystem (src/obs/): histogram bucketing,
// registry determinism (byte-identical to_json for identical executions),
// span nesting/notes/caps, the MetricsSink bridge against a real CONGEST
// run, sink chaining on top of the proptest trace recorder, the named
// problems' clock against their ledger, slots bound to the installing
// thread, the disabled path, and the structural shape of both exporters.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "congest/network.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace_export.hpp"
#include "planar/generators.hpp"
#include "separator/engine.hpp"
#include "shortcuts/cost.hpp"
#include "shortcuts/partwise.hpp"
#include "subroutines/problems.hpp"
#include "testing/trace.hpp"

namespace plansep::obs {
namespace {

using planar::GeneratedGraph;
using planar::NodeId;

TEST(Histogram, PowerOfTwoBuckets) {
  HistogramData h;
  h.add(0);    // bit_width 0 -> bucket 0
  h.add(1);    // bit_width 1 -> bucket 1
  h.add(2);    // bit_width 2 -> bucket 2
  h.add(3);    // bit_width 2 -> bucket 2
  h.add(4);    // bit_width 3 -> bucket 3
  h.add(100);  // bit_width 7 -> bucket 7
  EXPECT_EQ(h.count, 6);
  EXPECT_EQ(h.sum, 110);
  EXPECT_EQ(h.min, 0);
  EXPECT_EQ(h.max, 100);
  ASSERT_EQ(h.buckets.size(), 8u);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 2);
  EXPECT_EQ(h.buckets[3], 1);
  EXPECT_EQ(h.buckets[7], 1);
  EXPECT_EQ(HistogramData::bucket_le(0), 0);
  EXPECT_EQ(HistogramData::bucket_le(3), 7);
  EXPECT_EQ(HistogramData::bucket_le(7), 127);
}

TEST(Histogram, NegativeSamplesLandInBucketZero) {
  HistogramData h;
  h.add(-5);
  EXPECT_EQ(h.count, 1);
  EXPECT_EQ(h.min, -5);
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0], 1);
}

// The same sequence of registry operations must render byte-identically —
// the property the serial-vs-parallel equality test leans on.
TEST(Registry, IdenticalExecutionsRenderByteIdenticalJson) {
  auto exercise = [] {
    MetricsRegistry reg;
    reg.add("alpha", 3);
    reg.add("beta");
    reg.histogram("h").add(17);
    reg.advance_analytic(5);
    reg.advance_network_round();
    reg.count_message();
    const int outer = reg.begin_span("outer");
    reg.advance_analytic(2);
    const int inner = reg.begin_span("inner");
    reg.note(inner, "k", 42);
    reg.end_span(inner);
    reg.end_span(outer);
    reg.record_round_sample(4, 7);
    return reg.to_json();
  };
  const std::string a = exercise();
  const std::string b = exercise();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.back(), '\n');

  MetricsRegistry other;
  other.add("alpha", 4);
  EXPECT_NE(a, other.to_json());
}

TEST(Registry, ClockMergesNetworkAndAnalyticRounds) {
  MetricsRegistry reg;
  reg.advance_network_round();
  reg.advance_network_round();
  reg.advance_analytic(10);
  reg.advance_analytic(0);   // non-positive charges are ignored
  reg.advance_analytic(-3);
  EXPECT_EQ(reg.network_rounds(), 2);
  EXPECT_EQ(reg.analytic_rounds(), 10);
  EXPECT_EQ(reg.rounds(), 12);
}

TEST(Registry, SpanNestingDepthAndNotes) {
  MetricsRegistry reg;
  const int a = reg.begin_span("a");
  reg.advance_analytic(3);
  const int b = reg.begin_span("b");
  reg.note(b, "width", 9);
  reg.advance_analytic(4);
  reg.end_span(b);
  reg.end_span(a);

  ASSERT_EQ(reg.spans().size(), 2u);
  const SpanRecord& sa = reg.spans()[0];
  const SpanRecord& sb = reg.spans()[1];
  EXPECT_EQ(sa.name, "a");
  EXPECT_EQ(sa.depth, 0);
  EXPECT_EQ(sb.name, "b");
  EXPECT_EQ(sb.depth, 1);
  EXPECT_FALSE(sa.open);
  EXPECT_FALSE(sb.open);
  EXPECT_EQ(sa.end_rounds - sa.begin_rounds, 7);
  EXPECT_EQ(sb.end_rounds - sb.begin_rounds, 4);
  // b nests inside a on the clock.
  EXPECT_GE(sb.begin_rounds, sa.begin_rounds);
  EXPECT_LE(sb.end_rounds, sa.end_rounds);
  ASSERT_EQ(sb.notes.size(), 1u);
  EXPECT_EQ(sb.notes[0].first, "width");
  EXPECT_EQ(sb.notes[0].second, 9);
  EXPECT_EQ(reg.open_depth(), 0);
}

TEST(Registry, SpanCapDropsAreCountedNotSilent) {
  MetricsRegistry reg;
  reg.set_span_cap(2);
  const int a = reg.begin_span("a");
  reg.end_span(a);
  const int b = reg.begin_span("b");
  reg.end_span(b);
  const int c = reg.begin_span("c");  // over cap
  EXPECT_EQ(c, -1);
  reg.end_span(c);  // must be a safe no-op
  reg.note(c, "ignored", 1);
  EXPECT_EQ(reg.spans().size(), 2u);
  EXPECT_NE(reg.to_json().find("\"spans_dropped\":1"), std::string::npos);
}

TEST(Registry, RoundSampleCapDropsAreCounted) {
  MetricsRegistry reg;
  reg.set_round_sample_cap(3);
  for (int i = 0; i < 5; ++i) reg.record_round_sample(i, i);
  EXPECT_EQ(reg.round_samples().size(), 3u);
  EXPECT_NE(reg.to_json().find("\"round_samples_dropped\":2"),
            std::string::npos);
}

// MetricsSink against a real CONGEST run: the registry's network clock and
// message counter must agree with the Network's own accounting, and scope
// exit must fold the per-edge loads into the congestion histogram.
TEST(Sink, MirrorsNetworkAccountingAndFoldsEdgeLoad) {
  const GeneratedGraph gg = planar::grid(6, 6);
  MetricsRegistry reg;
  congest::BfsResult bfs;
  {
    ScopedMetrics scope(reg);
    bfs = congest::distributed_bfs(gg.graph, gg.root_hint);
  }
  EXPECT_EQ(reg.network_rounds(), bfs.rounds);
  EXPECT_GT(reg.messages(), 0);
  EXPECT_EQ(reg.counter("congest/runs"), 1);
  ASSERT_EQ(reg.histograms().count("congest/run_rounds"), 1u);
  EXPECT_EQ(reg.histograms().at("congest/run_rounds").sum, bfs.rounds);
  ASSERT_EQ(reg.histograms().count("congest/run_messages"), 1u);
  EXPECT_EQ(reg.histograms().at("congest/run_messages").sum, reg.messages());
  // BFS sends over every edge at least once; edge_load count = edges used.
  ASSERT_EQ(reg.histograms().count("congest/edge_load"), 1u);
  const HistogramData& load = reg.histograms().at("congest/edge_load");
  EXPECT_GT(load.count, 0);
  EXPECT_EQ(load.sum, reg.messages());
  // Spans fired inside distributed_bfs too.
  ASSERT_FALSE(reg.spans().empty());
  EXPECT_EQ(reg.spans()[0].name, "congest/bfs");
}

// A metrics scope stacked on top of a trace recorder must forward every
// event: both observers see the same message count.
TEST(Sink, ChainsToDownstreamTraceRecorder) {
  // Settle any PLANSEP_METRICS bootstrap so the baseline sink is stable.
  global_registry();
  congest::TraceSink* const base = congest::global_trace_sink();
  const GeneratedGraph gg = planar::grid(5, 5);
  testing::TraceRecorder rec;
  MetricsRegistry reg;
  {
    testing::ScopedTraceCapture cap(rec);
    ScopedMetrics scope(reg);
    congest::distributed_bfs(gg.graph, gg.root_hint);
  }
  EXPECT_GT(reg.messages(), 0);
  EXPECT_EQ(rec.total_messages(), reg.messages());
  EXPECT_EQ(congest::global_trace_sink(), base);
}

TEST(Sink, AnalyticChargesFlowThroughCostModel) {
  const GeneratedGraph gg = planar::grid(5, 5);
  MetricsRegistry reg;
  {
    ScopedMetrics scope(reg);
    shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
    std::vector<int> part(static_cast<std::size_t>(gg.graph.num_nodes()), 0);
    std::vector<std::int64_t> value(
        static_cast<std::size_t>(gg.graph.num_nodes()), 1);
    const auto agg = engine.aggregate(part, value, shortcuts::AggOp::kSum);
    EXPECT_EQ(agg.value[0], gg.graph.num_nodes());
    shortcuts::local_exchange(3);
  }
  // aggregate() and local_exchange() both advance the analytic clock.
  EXPECT_GT(reg.analytic_rounds(), 0);
  // The setup BFS ran on the simulator, so network rounds advanced too.
  EXPECT_GT(reg.network_rounds(), 0);
  // pa/setup_bfs and pa/aggregate spans were recorded.
  bool saw_setup = false, saw_agg = false;
  for (const SpanRecord& s : reg.spans()) {
    saw_setup |= (s.name == "pa/setup_bfs");
    saw_agg |= (s.name == "pa/aggregate");
  }
  EXPECT_TRUE(saw_setup);
  EXPECT_TRUE(saw_agg);
}

// A named problem that prices k aggregations at one probe's cost moves the
// obs clock by its ledger plus that probe, as the separator engine does, so
// the timeline keeps pace with the ledger.
TEST(Sink, NamedProblemsAdvanceTheClockByLedgerPlusProbe) {
  const GeneratedGraph gg = planar::grid(10, 10);
  const planar::EmbeddedGraph& g = gg.graph;
  shortcuts::PartwiseEngine engine(g, gg.root_hint);
  const std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
  const sub::PartSet ps = sub::build_part_set(g, part, 1, engine);
  const tree::RootedSpanningTree& t = ps.tree_of_part(0);
  const faces::FundamentalEdge fe = faces::analyze_fundamental_edge(
      t, faces::real_fundamental_edges(t).front());
  const std::vector<NodeId> u{fe.u}, v{fe.v};
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  const long long probe = sub::aggregation_price(engine, ps).measured;
  ASSERT_GT(probe, 0);
  const auto beyond_ledger = [&](const auto& run) {
    const long long before = reg.rounds();
    const long long ledger = run().measured;
    return reg.rounds() - before - ledger;
  };
  EXPECT_EQ(beyond_ledger([&] {
              return sub::ancestor_problem(ps, engine, u).cost;
            }), probe);
  EXPECT_EQ(beyond_ledger([&] {
              return sub::mark_path_problem(ps, engine, u, v).cost;
            }), probe);
  EXPECT_EQ(beyond_ledger([&] {
              return sub::detect_face_problem(ps, engine, {fe}).cost;
            }), probe);
  EXPECT_EQ(beyond_ledger([&] {
              return sub::hidden_problem(ps, engine, {fe}, v).cost;
            }), probe);
  EXPECT_EQ(beyond_ledger([&] {
              return separator::SeparatorEngine(engine).compute(ps).cost;
            }), probe);
}

// The registry and trace-sink slots belong to the thread that installs
// them: a run on another thread neither sees nor feeds them.
TEST(ObsThreads, RegistryAndSinkAreBoundToTheInstallingThread) {
  const GeneratedGraph gg = planar::grid(5, 5);
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  const long long before = reg.counter("congest/runs");
  MetricsRegistry* other_registry = &reg;
  congest::TraceSink* other_sink = &scope.sink();
  std::thread other([&] {
    other_registry = global_registry();
    other_sink = congest::global_trace_sink();
    congest::distributed_bfs(gg.graph, gg.root_hint);
  });
  other.join();
  EXPECT_EQ(other_registry, nullptr);
  EXPECT_EQ(other_sink, nullptr);
  EXPECT_EQ(reg.counter("congest/runs"), before);
  congest::distributed_bfs(gg.graph, gg.root_hint);
  EXPECT_EQ(reg.counter("congest/runs"), before + 1);
}

TEST(Disabled, HelpersAreNoOpsWithoutRegistry) {
  if (global_registry() != nullptr) {
    GTEST_SKIP() << "PLANSEP_METRICS is enabled for this process";
  }
  // None of these may crash or install anything.
  advance_rounds(100);
  add_counter("nope");
  {
    PLANSEP_SPAN("disabled/span");
    Span s("disabled/other");
    s.note("k", 1);
  }
  EXPECT_EQ(global_registry(), nullptr);
}

TEST(Export, MetricsJsonHasStableShape) {
  MetricsRegistry reg;
  reg.add("c\"quoted\\name", 2);  // exercises string escaping
  reg.histogram("h").add(5);
  const int t = reg.begin_span("phase");
  reg.advance_analytic(3);
  reg.end_span(t);
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"schema\":1"), std::string::npos);
  EXPECT_NE(j.find("\"rounds\":3"), std::string::npos);
  EXPECT_NE(j.find("\"c\\\"quoted\\\\name\":2"), std::string::npos);
  // Buckets render sparsely: only non-zero [upper_bound, count] pairs.
  EXPECT_NE(j.find("\"buckets\":[[7,1]]"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"phase\""), std::string::npos);
}

TEST(Export, ChromeTraceContainsSlicesAndCounters) {
  const GeneratedGraph gg = planar::grid(5, 5);
  MetricsRegistry reg;
  {
    ScopedMetrics scope(reg);
    congest::distributed_bfs(gg.graph, gg.root_hint);
  }
  const std::string t = chrome_trace_json(reg);
  EXPECT_NE(t.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(t.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos);  // span slices
  EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);  // counter tracks
  EXPECT_NE(t.find("\"congest/bfs\""), std::string::npos);
  EXPECT_NE(t.find("active nodes"), std::string::npos);
  EXPECT_NE(t.find("delivered messages"), std::string::npos);
  // Deterministic: a second render is byte-identical.
  EXPECT_EQ(t, chrome_trace_json(reg));
}

}  // namespace
}  // namespace plansep::obs
