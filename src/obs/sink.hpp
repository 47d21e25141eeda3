#pragma once

/// \file
/// Bridges the CONGEST engine's TraceSink hook to a MetricsRegistry
/// (ScopedMetrics RAII scope and the PLANSEP_METRICS env bootstrap).

// Bridges the CONGEST engine's TraceSink hook to a MetricsRegistry, and the
// two ways the bridge is installed. Both slots, the registry
// (obs::set_global_registry) and the trace sink
// (congest::set_global_trace_sink), are bound to the calling thread: work
// on other threads never reaches what a thread installs.
//
//   * ScopedMetrics — RAII: installs a registry and a MetricsSink as the
//     calling thread's for the scope, chaining to (and restoring) whatever
//     sink the thread had before, so metrics compose with the proptest
//     harness's trace capture.
//   * ensure_env_metrics — once per process: when the PLANSEP_METRICS
//     environment variable is truthy (set, non-empty, not "0"), a
//     process-lifetime registry + sink pair is installed on the thread
//     that first settles the bootstrap. The library settles it while it
//     loads, so that is the main thread in every CLI and test. At exit
//     the collected metrics/trace are written to PLANSEP_METRICS_OUT /
//     PLANSEP_TRACE_OUT if set. This is how CI runs the whole tier-1
//     suite with instrumentation live without touching any test; threads
//     the process starts (daemon workers, say) run un-instrumented.
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
/// repeatedly. The library settles it while it loads; Network::run and
/// global_registry() call it too, which links it into every program that
/// reaches either.
void ensure_env_metrics();

/// RAII metrics scope: the calling thread's registry + chained trace sink
/// for the lifetime of the object. It records only work on the
/// constructing thread, and must be destroyed there.
class ScopedMetrics {
 public:
  /// Installs reg on the calling thread and chains a MetricsSink over the
  /// thread's current trace sink for the lifetime of the scope.
  explicit ScopedMetrics(MetricsRegistry& reg) : sink_(reg) {
    // The PLANSEP_METRICS bootstrap settled while the library loaded, so
    // the env pair sits below this scope, never on top of it.
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
