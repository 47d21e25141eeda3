#include "testing/chaos.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "io/artifact.hpp"
#include "taskgraph/pipeline.hpp"
#include "testing/trace.hpp"

namespace plansep::testing {

namespace {

using planar::NodeId;

// Centralized, network-free balance check of a recovered separator:
// the marked path must be node-simple and every component of G − path
// must have at most 2n/3 nodes, by the oracles' reference search.
// Independent of the distributed state the fault stage validated
// against, so a corrupted PartSet cannot vouch for itself.
void cross_check_separator(const planar::EmbeddedGraph& g,
                           const separator::PartSeparator& sep,
                           InvariantReport& rep) {
  std::vector<NodeId> path = sep.path;
  std::sort(path.begin(), path.end());
  if (std::adjacent_find(path.begin(), path.end()) != path.end()) {
    rep.fail("chaos/separator: recovered path repeats a node");
    return;
  }
  const ReferenceBalance bal = reference_balance(g, {}, 0, sep.path);
  if (!bal.ok()) {
    rep.fail("chaos/separator: component of " + std::to_string(bal.heaviest) +
             " nodes exceeds 2n/3 (n=" + std::to_string(bal.total) + ")");
  }
}

}  // namespace

faults::FaultSpec fault_spec_for(FaultFamily family) {
  faults::FaultSpec spec;
  switch (family) {
    case FaultFamily::kNone:
      break;
    case FaultFamily::kDrops:
      spec.drop_prob = 0.03;
      break;
    case FaultFamily::kDuplicates:
      spec.duplicate_prob = 0.1;
      break;
    case FaultFamily::kReorder:
      spec.reorder_prob = 1.0;
      break;
    case FaultFamily::kCrashes:
      spec.crash_prob = 0.05;
      break;
    case FaultFamily::kStalls:
      spec.stall_prob = 0.1;
      break;
    case FaultFamily::kOutages:
      spec.edge_outage_prob = 0.05;
      break;
    case FaultFamily::kChaos:
      spec.drop_prob = 0.015;
      spec.duplicate_prob = 0.05;
      spec.stall_prob = 0.05;
      spec.reorder_prob = 0.5;
      spec.crash_prob = 0.025;
      spec.edge_outage_prob = 0.025;
      break;
  }
  return spec;
}

ChaosStats run_pipeline_chaos(const Instance& inst, const ChaosOptions& opt,
                              InvariantReport& rep) {
  ChaosStats st;
  const auto& g = inst.gg.graph;
  const NodeId root = inst.gg.root_hint;

  // Precondition gate, not a property: the pipeline is only specified for
  // connected plane graphs, faults or not.
  {
    InvariantReport gate;
    check_embedding(g, /*require_connected=*/true, gate);
    if (!gate.ok()) return st;
  }

  faults::FaultController ctl(fault_spec_for(inst.spec.faults),
                              inst.spec.seed);
  TraceRecorder rec;
  {
    std::optional<ScopedTraceCapture> cap;
    if (opt.capture_trace) cap.emplace(rec);
    faults::ScopedFaultInjection inject(ctl);

    // The fault stages a fault job calls, judged by the bytes they ship.
    taskgraph::JobInputs in;
    in.graph = &g;
    in.root = root;
    const taskgraph::Recovered sep = taskgraph::recover_separator(in);
    st.separator_survived = sep.retry.ok;
    st.separator_attempts = sep.retry.attempts;
    if (sep.retry.ok) {
      // Read the way a row reads them: io::parse verifies the container,
      // and a missing section throws.
      const io::SeparatorArtifact sa = io::decode_separator(
          io::parse(sep.bytes).require(io::SectionId::kSeparator));
      cross_check_separator(g, sa.part, rep);
    } else if (sep.retry.failure.empty()) {
      rep.fail("chaos/separator: failed without a diagnosis");
    }

    if (opt.run_dfs) {
      const taskgraph::Recovered d = taskgraph::recover_dfs(in);
      st.dfs_survived = d.retry.ok;
      st.dfs_attempts = d.retry.attempts;
      if (d.retry.ok) {
        // Independent centralized DFS oracle over the shipped tree: the
        // stage accepted it by dfs::check_dfs_tree, the oracle re-judges
        // it by parent walks.
        const io::DfsArtifact t = io::decode_dfs(
            io::parse(d.bytes).require(io::SectionId::kDfsTree));
        check_dfs_tree_oracle(g, t.root, t.parent, t.depth, rep);
      } else if (d.retry.failure.empty()) {
        rep.fail("chaos/dfs: failed without a diagnosis");
      }
    }
  }
  st.injected = ctl.counters().injected();
  if (opt.capture_trace) {
    st.trace_messages = rec.total_messages();
    // Faults act on *accepted* sends, so the bandwidth discipline must
    // survive every plan.
    check_bandwidth(g, rec.events(), rep);
  }
  return st;
}

}  // namespace plansep::testing
