// Tests for the fault-injection layer (src/faults/ + the congest engine's
// fault path): plan determinism and purity, per-fault delivery semantics
// (drop/duplicate/stall/reorder, crash/restart), the empty-plan
// byte-identity regression (metrics JSON and trace), the injector's
// binding to the thread that installs it, the recovery drivers (clean
// runs charge exactly the core library's cost), and `--faults=` replay
// round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "congest/network.hpp"
#include "core/plansep.hpp"
#include "dfs/validate.hpp"
#include "faults/controller.hpp"
#include "faults/plan.hpp"
#include "faults/recovery.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "planar/generators.hpp"
#include "shortcuts/partwise.hpp"
#include "testing/chaos.hpp"
#include "testing/proptest.hpp"
#include "testing/trace.hpp"

namespace plansep::faults {
namespace {

using congest::FaultInjector;
using congest::NodeId;
using planar::GeneratedGraph;
using testing::TraceRecorder;

FaultSpec chaos_spec() {
  FaultSpec spec;
  spec.drop_prob = 0.05;
  spec.duplicate_prob = 0.05;
  spec.stall_prob = 0.05;
  spec.reorder_prob = 0.5;
  spec.crash_prob = 0.05;
  spec.edge_outage_prob = 0.02;
  return spec;
}

// ----------------------------------------------------------------- plan --

TEST(FaultPlan, EmptyPlanNeverInjects) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  for (int round = 0; round < 64; ++round) {
    for (NodeId v = 0; v < 8; ++v) {
      EXPECT_FALSE(plan.crashed(round, v));
      EXPECT_EQ(plan.fate(round, v, (v + 1) % 8), FaultInjector::Fate::kDeliver);
      EXPECT_EQ(plan.reorder_seed(round, v), 0u);
    }
  }
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeed) {
  const FaultSpec spec = chaos_spec();
  const FaultPlan a(spec, 42), b(spec, 42), c(spec, 43);
  bool any_difference = false;
  for (int round = 0; round < 128; ++round) {
    for (NodeId v = 0; v < 10; ++v) {
      const NodeId w = (v + 1) % 10;
      // Identical seed: identical answers, query order irrelevant.
      EXPECT_EQ(a.crashed(round, v), b.crashed(round, v));
      EXPECT_EQ(a.fate(round, v, w), b.fate(round, v, w));
      EXPECT_EQ(a.reorder_seed(round, v), b.reorder_seed(round, v));
      if (a.fate(round, v, w) != c.fate(round, v, w) ||
          a.crashed(round, v) != c.crashed(round, v)) {
        any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "seed 43 produced the exact fault stream of "
                                 "seed 42 across 1280 queries";
}

TEST(FaultPlan, CrashWindowsRespectLength) {
  FaultSpec spec;
  spec.crash_prob = 1.0;  // every node crashes in every window
  spec.crash_length = 2;
  spec.window_rounds = 8;
  const FaultPlan plan(spec, 7);
  for (int round = 0; round < 32; ++round) {
    EXPECT_EQ(plan.crashed(round, 3), round % 8 < 2) << "round " << round;
  }
}

TEST(FaultPlan, TopologyFingerprintSeparatesGraphs) {
  const GeneratedGraph a = planar::grid(4, 4);
  const GeneratedGraph b = planar::grid(4, 5);
  EXPECT_NE(topology_fingerprint(a.graph), topology_fingerprint(b.graph));
  EXPECT_EQ(topology_fingerprint(a.graph),
            topology_fingerprint(planar::grid(4, 4).graph));
}

// ----------------------------------------------- per-fault semantics ----

// Delivers v -> v+1 pings down a path for `sends` rounds, recording every
// (round, payload) each node receives.
class PingProgram : public congest::NodeProgram {
 public:
  explicit PingProgram(int sends) : sends_(sends) {}
  std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph& g) override {
    received.assign(static_cast<std::size_t>(g.num_nodes()), {});
    turns.assign(static_cast<std::size_t>(g.num_nodes()), {});
    return {0};
  }
  void round(NodeId v, congest::InboxView inbox,
             congest::Ctx& ctx) override {
    turns[static_cast<std::size_t>(v)].push_back(
        {ctx.round(), static_cast<int>(inbox.size())});
    for (const auto& inc : inbox) {
      received[static_cast<std::size_t>(v)].push_back(
          {ctx.round(), inc.msg.a});
    }
    if (v == 0 && ctx.round() < sends_) {
      congest::Message m;
      m.a = ctx.round();
      ctx.send(1, m);
      if (ctx.round() + 1 < sends_) ctx.wake_next_round();
    }
  }
  std::vector<std::vector<std::pair<int, std::int64_t>>> received;
  std::vector<std::vector<std::pair<int, int>>> turns;  // (round, |inbox|)

 private:
  int sends_ = 1;
};

// Injector with a fixed fate for every message; no crashes, no reorders.
class FixedFate : public FaultInjector {
 public:
  explicit FixedFate(Fate f) : fate_(f) {}
  bool crashed(int, NodeId) override { return false; }
  Fate fate(int, NodeId, NodeId) override { return fate_; }
  std::uint64_t reorder_seed(int, NodeId) override { return 0; }

 private:
  Fate fate_;
};

TEST(NetworkFaults, DropLosesTheMessage) {
  const GeneratedGraph gg = planar::path(3);
  congest::Network net(gg.graph);
  FixedFate drop(FaultInjector::Fate::kDrop);
  net.set_fault_injector(&drop);
  PingProgram prog(1);
  net.run(prog, 16);
  EXPECT_TRUE(prog.received[1].empty());
}

TEST(NetworkFaults, DuplicateDeliversTwoCopies) {
  const GeneratedGraph gg = planar::path(3);
  congest::Network net(gg.graph);
  FixedFate dup(FaultInjector::Fate::kDuplicate);
  net.set_fault_injector(&dup);
  PingProgram prog(1);
  net.run(prog, 16);
  ASSERT_EQ(prog.received[1].size(), 2u);
  EXPECT_EQ(prog.received[1][0], prog.received[1][1]);
}

TEST(NetworkFaults, StallDelaysDeliveryExactlyOneRound) {
  const GeneratedGraph gg = planar::path(3);
  congest::Network net(gg.graph);
  FixedFate stall(FaultInjector::Fate::kStall);
  net.set_fault_injector(&stall);
  PingProgram prog(1);
  net.run(prog, 16);
  // A clean send in round 0 is read in round 1; stalled, in round 2. The
  // run must stay alive for the in-flight stalled message (quiescence
  // extension) even though no node is active in round 1.
  ASSERT_EQ(prog.received[1].size(), 1u);
  EXPECT_EQ(prog.received[1][0].first, 2);
  EXPECT_EQ(prog.received[1][0].second, 0);
}

// Crashes one node over a round interval.
class CrashWindow : public FaultInjector {
 public:
  CrashWindow(NodeId v, int from, int to) : v_(v), from_(from), to_(to) {}
  bool crashed(int round, NodeId v) override {
    return v == v_ && round >= from_ && round < to_;
  }
  Fate fate(int, NodeId, NodeId) override { return Fate::kDeliver; }
  std::uint64_t reorder_seed(int, NodeId) override { return 0; }

 private:
  NodeId v_;
  int from_, to_;
};

TEST(NetworkFaults, CrashLosesMailAndRestartGrantsEmptyTurn) {
  const GeneratedGraph gg = planar::path(3);
  congest::Network net(gg.graph);
  CrashWindow crash(/*v=*/1, /*from=*/1, /*to=*/3);
  net.set_fault_injector(&crash);
  PingProgram prog(3);  // node 0 sends in rounds 0, 1, 2
  net.run(prog, 32);
  // Sends of rounds 0 and 1 would be read in rounds 1 and 2 — both inside
  // the crash window, so they are lost with the pending mail. The round-2
  // send is read after the restart.
  ASSERT_EQ(prog.received[1].size(), 1u);
  EXPECT_EQ(prog.received[1][0].second, 2);
  // The restart turn itself: node 1 ran in round 3 with an empty inbox is
  // impossible here (its round-3 inbox holds the round-2 send), so the
  // restart and the delivery coincide; assert node 1 never ran during the
  // crash window.
  for (const auto& [round, inbox_size] : prog.turns[1]) {
    EXPECT_TRUE(round < 1 || round >= 3)
        << "node 1 took a turn in round " << round << " while crashed";
  }
}

TEST(NetworkFaults, CrashedQuietNodeGetsRestartTurn) {
  // Node 1 receives mail in round 1 (crashed — mail lost) and nothing
  // afterwards: the engine still owes it one empty-inbox restart turn at
  // round 3, where BfsProgram-style protocols fail loudly instead of
  // hanging half-initialized.
  const GeneratedGraph gg = planar::path(2);
  congest::Network net(gg.graph);
  CrashWindow crash(/*v=*/1, /*from=*/1, /*to=*/3);
  net.set_fault_injector(&crash);
  PingProgram prog(1);
  net.run(prog, 32);
  EXPECT_TRUE(prog.received[1].empty());
  ASSERT_EQ(prog.turns[1].size(), 1u);
  EXPECT_EQ(prog.turns[1][0], (std::pair<int, int>{3, 0}));
}

// Reorders every inbox of one designated round with a fixed seed.
class ReorderRound : public FaultInjector {
 public:
  explicit ReorderRound(int round) : round_(round) {}
  bool crashed(int, NodeId) override { return false; }
  Fate fate(int, NodeId, NodeId) override { return Fate::kDeliver; }
  std::uint64_t reorder_seed(int round, NodeId) override {
    return round == round_ ? 0x9e3779b97f4a7c15ULL : 0;
  }

 private:
  int round_;
};

// Every leaf of a star sends its id to the center in round 0.
class Gather : public congest::NodeProgram {
 public:
  std::vector<NodeId> initial_nodes(const planar::EmbeddedGraph& g) override {
    std::vector<NodeId> leaves;
    for (NodeId v = 1; v < g.num_nodes(); ++v) leaves.push_back(v);
    return leaves;
  }
  void round(NodeId v, congest::InboxView inbox,
             congest::Ctx& ctx) override {
    if (v != 0) {
      congest::Message m;
      m.a = v;
      ctx.send(0, m);
      return;
    }
    for (const auto& inc : inbox) order.push_back(inc.msg.a);
  }
  std::vector<std::int64_t> order;
};

TEST(NetworkFaults, ReorderIsDeterministicAndNontrivial) {
  const GeneratedGraph gg = planar::star(9);
  std::vector<std::int64_t> canonical, shuffled_a, shuffled_b;
  {
    congest::Network net(gg.graph);
    Gather prog;
    net.run(prog, 8);
    canonical = prog.order;
  }
  for (auto* out : {&shuffled_a, &shuffled_b}) {
    congest::Network net(gg.graph);
    ReorderRound reorder(0);
    net.set_fault_injector(&reorder);
    Gather prog;
    net.run(prog, 8);
    *out = prog.order;
  }
  ASSERT_EQ(canonical.size(), 8u);
  EXPECT_EQ(shuffled_a, shuffled_b);  // same seed -> same permutation
  EXPECT_NE(shuffled_a, canonical);   // and an actual permutation
  auto sorted = shuffled_a;
  std::sort(sorted.begin(), sorted.end());
  std::sort(canonical.begin(), canonical.end());
  EXPECT_EQ(sorted, canonical);  // nothing lost, nothing invented
}

// -------------------------------------------- determinism regressions --

// Runs a BFS + part-wise aggregation workload with an optional fault
// controller attached; returns (metrics JSON, trace).
struct WorkloadResult {
  std::string metrics_json;
  std::vector<testing::TraceEvent> trace;
  bool threw = false;  // a run aborted by a protocol invariant
};

WorkloadResult run_workload(FaultController* ctl) {
  const GeneratedGraph gg = planar::grid(9, 11);
  obs::MetricsRegistry reg;
  TraceRecorder rec;
  WorkloadResult out;
  {
    testing::ScopedTraceCapture cap(rec);
    obs::ScopedMetrics metrics(reg);
    std::optional<ScopedFaultInjection> inject;
    if (ctl) inject.emplace(*ctl);

    // Under an aggressive plan the BFS wave may legitimately fail loudly
    // (e.g. a drop disconnects the wave); the determinism claim covers the
    // aborted prefix too, so the throw is part of the compared outcome.
    try {
      shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
      std::vector<int> part(static_cast<std::size_t>(gg.graph.num_nodes()), 0);
      std::vector<std::int64_t> value(
          static_cast<std::size_t>(gg.graph.num_nodes()));
      for (NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
        value[static_cast<std::size_t>(v)] = (5 * v) % 17;
      }
      engine.aggregate(part, value, shortcuts::AggOp::kSum);
    } catch (const std::exception&) {
      out.threw = true;
    }
  }
  out.metrics_json = reg.to_json();
  out.trace = rec.events();
  return out;
}

TEST(NetworkFaults, EmptyPlanIsByteIdenticalToNoInjector) {
  // The satellite regression: a FaultController with the empty plan
  // attached must not perturb anything observable — metrics JSON and the
  // captured trace stay byte-identical.
  const WorkloadResult baseline = run_workload(nullptr);
  ASSERT_FALSE(baseline.trace.empty());
  ASSERT_FALSE(baseline.threw);
  FaultController empty_plan;
  const WorkloadResult with = run_workload(&empty_plan);
  EXPECT_EQ(with.metrics_json, baseline.metrics_json);
  EXPECT_EQ(testing::first_divergence(with.trace, baseline.trace), -1)
      << testing::diff_traces(with.trace, baseline.trace);
  EXPECT_GT(empty_plan.counters().runs, 0);
  EXPECT_EQ(empty_plan.counters().injected(), 0);
}

TEST(NetworkFaults, InjectorIsBoundToTheInstallingThread) {
  // A drop-everything injector installed on this thread reaches networks
  // run here, but a BFS on a second thread matches the fault-free run.
  const GeneratedGraph gg = planar::grid(6, 6);
  const congest::BfsResult clean =
      congest::distributed_bfs(gg.graph, gg.root_hint);
  FaultSpec spec;
  spec.drop_prob = 1.0;
  FaultController ctl(spec, /*seed=*/5);
  ScopedFaultInjection inject(ctl);

  congest::BfsResult other;
  std::string other_error;
  std::thread worker([&] {
    try {
      other = congest::distributed_bfs(gg.graph, gg.root_hint);
    } catch (const std::exception& e) {
      other_error = e.what();
    }
  });
  worker.join();
  EXPECT_EQ(other_error, "");
  EXPECT_EQ(other.depth, clean.depth);
  EXPECT_EQ(other.height, clean.height);
  EXPECT_EQ(other.rounds, clean.rounds);
  EXPECT_EQ(other.messages, clean.messages);
  EXPECT_EQ(ctl.counters().runs, 0);

  try {
    congest::distributed_bfs(gg.graph, gg.root_hint);
  } catch (const std::exception&) {
    // Losing every message may abort the wave; only the counters matter.
  }
  EXPECT_EQ(ctl.counters().runs, 1);
  EXPECT_GT(ctl.counters().dropped, 0);
}

TEST(FaultController, EpochReseedsPerRunAndCountsInjections) {
  const GeneratedGraph gg = planar::grid(6, 6);
  FaultSpec spec;
  spec.drop_prob = 0.2;
  FaultController ctl(spec, 1);
  ScopedFaultInjection inject(ctl);
  // The wave may legitimately fail loudly under 20% drops; only the
  // controller's bookkeeping is under test here.
  const auto bfs_attempt = [&] {
    try {
      congest::distributed_bfs(gg.graph, gg.root_hint);
    } catch (const std::exception&) {
    }
  };
  bfs_attempt();
  const int first_epoch = ctl.epoch();
  const std::uint64_t first_seed = ctl.current_plan().seed();
  bfs_attempt();
  EXPECT_EQ(ctl.epoch(), first_epoch + 1);
  EXPECT_NE(ctl.current_plan().seed(), first_seed)
      << "retries must face fresh faults";
  EXPECT_EQ(ctl.counters().runs, 2);
}

// ------------------------------------------------------------ recovery --

TEST(Recovery, CleanRunSucceedsFirstAttempt) {
  const GeneratedGraph gg = planar::grid(7, 8);
  const RecoveredDfs r = build_dfs_tree_with_recovery(gg.graph, gg.root_hint);
  ASSERT_TRUE(r.recovery.ok) << r.recovery.failure;
  EXPECT_EQ(r.recovery.attempts, 1);
  EXPECT_EQ(r.recovery.backoff_rounds, 0);
  ASSERT_TRUE(r.build.has_value());
  EXPECT_TRUE(dfs::check_dfs_tree(gg.graph, r.build->tree).ok());

  const RecoveredSeparator s =
      compute_separator_with_recovery(gg.graph, gg.root_hint);
  ASSERT_TRUE(s.recovery.ok) << s.recovery.failure;
  EXPECT_EQ(s.recovery.attempts, 1);
  ASSERT_TRUE(s.result.has_value());
}

// With no injector a recovery run is one clean attempt, and it charges
// exactly what the core library does — the separator driver included the
// part-set build, like compute_cycle_separator.
TEST(Recovery, CleanRunCostMatchesLibraryReference) {
  for (const planar::Family family : planar::all_families()) {
    const GeneratedGraph gg = planar::make_instance(family, 120, 3);
    const char* name = planar::family_name(family);
    const RecoveredSeparator s =
        compute_separator_with_recovery(gg.graph, gg.root_hint);
    ASSERT_TRUE(s.recovery.ok) << name << ": " << s.recovery.failure;
    const SeparatorRun sep = compute_cycle_separator(gg.graph, gg.root_hint);
    EXPECT_EQ(s.cost.measured, sep.cost.measured) << name;
    EXPECT_EQ(s.cost.charged, sep.cost.charged) << name;

    const RecoveredDfs d = build_dfs_tree_with_recovery(gg.graph, gg.root_hint);
    ASSERT_TRUE(d.recovery.ok) << name << ": " << d.recovery.failure;
    const DfsRun dfs = compute_dfs_tree(gg.graph, gg.root_hint);
    EXPECT_EQ(d.cost.measured, dfs.build.cost.measured) << name;
    EXPECT_EQ(d.cost.charged, dfs.build.cost.charged) << name;
  }
}

TEST(Recovery, SurvivesOrDiagnosesUnderDrops) {
  const GeneratedGraph gg = planar::grid(6, 7);
  FaultSpec spec;
  spec.drop_prob = 0.02;
  FaultController ctl(spec, /*seed=*/11);
  ScopedFaultInjection inject(ctl);
  RetryPolicy policy;
  policy.max_attempts = 6;
  const RecoveredDfs r =
      build_dfs_tree_with_recovery(gg.graph, gg.root_hint, policy);
  EXPECT_GE(r.recovery.attempts, 1);
  EXPECT_LE(r.recovery.attempts, policy.max_attempts);
  if (r.recovery.ok) {
    ASSERT_TRUE(r.build.has_value());
    EXPECT_TRUE(dfs::check_dfs_tree(gg.graph, r.build->tree).ok());
  } else {
    EXPECT_FALSE(r.recovery.failure.empty());
  }
  if (r.recovery.attempts > 1) {
    // Failed attempts must have charged backoff to the ledger.
    EXPECT_GT(r.recovery.backoff_rounds, 0);
    EXPECT_GE(r.cost.measured, r.recovery.backoff_rounds);
  }
}

TEST(Recovery, BackoffIsChargedToLedgerAndObsClock) {
  // An injector hostile enough that every attempt fails: drop everything.
  const GeneratedGraph gg = planar::grid(5, 5);
  FaultSpec spec;
  spec.drop_prob = 1.0;
  FaultController ctl(spec, 3);
  ScopedFaultInjection inject(ctl);
  obs::MetricsRegistry reg;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_rounds = 16;
  long long retries = 0;
  {
    obs::ScopedMetrics metrics(reg);
    const RecoveredDfs r =
        build_dfs_tree_with_recovery(gg.graph, gg.root_hint, policy);
    EXPECT_FALSE(r.recovery.ok);
    EXPECT_EQ(r.recovery.attempts, 3);
    EXPECT_FALSE(r.recovery.failure.empty());
    // 16 + 32: backoff after attempts 1 and 2, none after the final one.
    EXPECT_EQ(r.recovery.backoff_rounds, 48);
    EXPECT_GE(r.cost.measured, 48);
    EXPECT_GE(r.cost.charged, 48);
    retries = reg.counter("faults/retries");
  }
  EXPECT_EQ(retries, 2);
  // The recovery span with its annotations reached the registry (and
  // therefore the Perfetto export, which serializes span notes as args).
  bool found = false;
  for (const auto& span : reg.spans()) {
    if (span.name != "faults/recover_dfs") continue;
    found = true;
    for (const auto& [key, value] : span.notes) {
      if (key == std::string("attempts")) {
        EXPECT_EQ(value, 3);
      } else if (key == std::string("ok")) {
        EXPECT_EQ(value, 0);
      } else if (key == std::string("backoff_rounds")) {
        EXPECT_EQ(value, 48);
      }
    }
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------------------------- replay --

TEST(FaultReplay, RoundTripsThroughParseReplay) {
  testing::CaseSpec spec;
  spec.family = planar::Family::kGrid;
  spec.n = 48;
  spec.seed = 12345;
  spec.faults = testing::FaultFamily::kCrashes;
  const std::string line = spec.replay();
  EXPECT_NE(line.find("--faults=crashes"), std::string::npos) << line;
  const auto parsed = testing::parse_replay(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->faults, testing::FaultFamily::kCrashes);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->n, spec.n);

  // Fault-free specs keep the pre-fault replay format.
  spec.faults = testing::FaultFamily::kNone;
  EXPECT_EQ(spec.replay().find("--faults"), std::string::npos);
}

TEST(FaultReplay, FamilyNamesRoundTrip) {
  for (testing::FaultFamily f :
       {testing::FaultFamily::kNone, testing::FaultFamily::kDrops,
        testing::FaultFamily::kDuplicates, testing::FaultFamily::kReorder,
        testing::FaultFamily::kCrashes, testing::FaultFamily::kStalls,
        testing::FaultFamily::kOutages, testing::FaultFamily::kChaos}) {
    const auto back =
        testing::fault_family_from_name(testing::fault_family_name(f));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(testing::fault_family_from_name("gremlins").has_value());
}

// ---------------------------------------------------------------- chaos --

TEST(Chaos, PipelineSurvivesOrFailsLoudly) {
  testing::CaseSpec spec;
  spec.family = planar::Family::kGrid;
  spec.n = 36;
  spec.seed = 99;
  spec.faults = testing::FaultFamily::kChaos;
  const testing::Instance inst = testing::build_instance(spec);
  testing::InvariantReport rep;
  const testing::ChaosStats st =
      testing::run_pipeline_chaos(inst, {}, rep);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(st.injected, 0);
  EXPECT_GT(st.trace_messages, 0);
  EXPECT_GE(st.separator_attempts, 1);
  EXPECT_GE(st.dfs_attempts, 1);
}

TEST(Chaos, FaultFreeFamilyMatchesCleanPipeline) {
  testing::CaseSpec spec;
  spec.family = planar::Family::kTriangulation;
  spec.n = 30;
  spec.seed = 5;
  const testing::Instance inst = testing::build_instance(spec);
  testing::InvariantReport rep;
  const testing::ChaosStats st =
      testing::run_pipeline_chaos(inst, {}, rep);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(st.injected, 0);
  EXPECT_TRUE(st.separator_survived);
  EXPECT_TRUE(st.dfs_survived);
  EXPECT_EQ(st.separator_attempts, 1);
  EXPECT_EQ(st.dfs_attempts, 1);
}

}  // namespace
}  // namespace plansep::faults
