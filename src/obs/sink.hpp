#pragma once

/// \file
/// Bridges the CONGEST engine's TraceSink hook to a MetricsRegistry
/// (ScopedMetrics RAII scope and the PLANSEP_METRICS env bootstrap).

// Bridges the CONGEST engine's TraceSink hook to a MetricsRegistry, and the
// two ways the bridge is installed:
//
//   * ScopedMetrics — RAII: installs a registry as the global one and a
//     MetricsSink as the global trace sink for the scope, chaining to (and
//     restoring) whatever sink was installed before, so metrics compose
//     with the proptest harness's trace capture.
//   * ensure_env_metrics — process-wide: when the PLANSEP_METRICS
//     environment variable is truthy (set, non-empty, not "0"), a
//     process-lifetime registry + sink pair is installed once, and at exit
//     the collected metrics/trace are written to PLANSEP_METRICS_OUT /
//     PLANSEP_TRACE_OUT if set. This is how CI runs the whole tier-1 suite
//     with instrumentation live under asan/ubsan without touching any
//     test.
//
// MetricsSink feeds, per run: the network-round clock, the message
// counter, active/delivered per-round histograms and trace samples, and —
// folded at run end — the per-edge load histogram ("congest/edge_load"),
// the congestion profile the low-congestion-shortcut literature reasons
// about. All callbacks arrive on the thread driving the run, in execution
// order (network.hpp), so the fold is deterministic too.

#include <vector>

#include "congest/network.hpp"
#include "obs/metrics.hpp"

namespace plansep::obs {

/// TraceSink that feeds a MetricsRegistry: round clock, message counter,
/// per-round activity histograms/samples, and the per-run per-edge load
/// histogram ("congest/edge_load") folded at run end.
class MetricsSink final : public congest::TraceSink {
 public:
  /// A sink feeding reg; reg must outlive the sink.
  explicit MetricsSink(MetricsRegistry& reg) : reg_(&reg) {}

  /// Downstream sink every event is forwarded to (may be null). Lets a
  /// metrics scope stack on top of an existing trace recorder.
  void set_next(congest::TraceSink* next) { next_ = next; }
  /// The chained downstream sink, or nullptr.
  congest::TraceSink* next() const { return next_; }

  void on_run_begin(const planar::EmbeddedGraph& g) override;
  void on_send(int round, congest::NodeId from, congest::NodeId to,
               const congest::Message& msg) override;
  void on_round_end(int round, int activated, long long delivered) override;
  void on_run_end(int rounds, long long messages) override;

  /// Folds any pending per-run state (a run aborted by an exception never
  /// reaches on_run_end). Idempotent; called automatically at the next
  /// run begin and by ScopedMetrics on scope exit.
  void finalize();

 private:
  MetricsRegistry* reg_;
  congest::TraceSink* next_ = nullptr;
  const planar::EmbeddedGraph* g_ = nullptr;
  std::vector<long long> edge_load_;      // per EdgeId, current run
  std::vector<planar::EdgeId> touched_;   // edges with load > 0, current run
  bool run_open_ = false;
};

/// One-time PLANSEP_METRICS bootstrap (see header comment). Cheap to call
/// repeatedly; Network::run, global_registry() and ScopedMetrics all call
/// it so env enablement works regardless of which side is reached first.
void ensure_env_metrics();

/// RAII metrics scope: global registry + chained global trace sink for the
/// lifetime of the object. Mutations (spans, counters) must stay on the
/// constructing thread, like any registry use.
class ScopedMetrics {
 public:
  /// Installs reg globally and chains a MetricsSink over the current
  /// global trace sink for the lifetime of the scope.
  explicit ScopedMetrics(MetricsRegistry& reg) : sink_(reg) {
    // Settle the PLANSEP_METRICS bootstrap first: the env pair must sit
    // below this scope, not install itself on top mid-scope (the first
    // global_registry() call inside the scope would otherwise trigger it
    // and steal the scope's spans).
    ensure_env_metrics();
    prev_registry_ = set_global_registry(&reg);
    sink_.set_next(congest::set_global_trace_sink(&sink_));
  }
  /// Restores the previous sink/registry and folds pending run state.
  ~ScopedMetrics() {
    congest::set_global_trace_sink(sink_.next());
    set_global_registry(prev_registry_);
    sink_.finalize();
  }
  ScopedMetrics(const ScopedMetrics&) = delete;             ///< non-copyable
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;  ///< non-copyable

  /// The scope's bridging sink (e.g. to inspect the chain in tests).
  MetricsSink& sink() { return sink_; }

 private:
  MetricsSink sink_;
  MetricsRegistry* prev_registry_;
};

}  // namespace plansep::obs
