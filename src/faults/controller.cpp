#include "faults/controller.hpp"

#include "obs/metrics.hpp"

namespace plansep::faults {

void FaultController::fold_run() {
  if (!run_open_) return;
  run_open_ = false;
  // The empty plan must leave the registry untouched — an attached but
  // inert controller has to produce byte-identical metrics JSON (the
  // regression in tests/faults_test.cpp).
  if (spec_.enabled()) {
    if (obs::MetricsRegistry* reg = obs::global_registry()) {
      reg->histogram("faults/injected").add(run_injected_);
    }
  }
  run_injected_ = 0;
}

void FaultController::on_run_begin(const EmbeddedGraph& g) {
  // A run aborted by an exception never reached on_run_end; fold it here,
  // exactly like obs::MetricsSink does.
  fold_run();
  plan_ = FaultPlan(
      spec_, mix_seed(seed_, topology_fingerprint(g),
                      static_cast<std::uint64_t>(epoch_)));
  ++epoch_;
  ++counters_.runs;
  run_open_ = true;
}

void FaultController::on_run_end() { fold_run(); }

bool FaultController::crashed(int round, NodeId v) {
  if (!plan_.crashed(round, v)) return false;
  ++counters_.crashed;
  ++run_injected_;
  obs::add_counter("faults/crashed");
  return true;
}

congest::FaultInjector::Fate FaultController::fate(int round, NodeId from,
                                                   NodeId to) {
  const Fate f = plan_.fate(round, from, to);
  switch (f) {
    case Fate::kDrop:
      ++counters_.dropped;
      ++run_injected_;
      obs::add_counter("faults/dropped");
      break;
    case Fate::kDuplicate:
      ++counters_.duplicated;
      ++run_injected_;
      obs::add_counter("faults/duplicated");
      break;
    case Fate::kStall:
      ++counters_.stalled;
      ++run_injected_;
      obs::add_counter("faults/stalled");
      break;
    case Fate::kDeliver:
      break;
  }
  return f;
}

std::uint64_t FaultController::reorder_seed(int round, NodeId to) {
  const std::uint64_t s = plan_.reorder_seed(round, to);
  if (s != 0) {
    ++counters_.reordered;
    ++run_injected_;
    obs::add_counter("faults/reordered");
  }
  return s;
}

}  // namespace plansep::faults
