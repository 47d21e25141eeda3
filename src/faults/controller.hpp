#pragma once

/// \file
/// FaultController (the live congest::FaultInjector over a FaultPlan) and
/// the ScopedFaultInjection RAII installer.

// FaultController: the congest::FaultInjector implementation that turns a
// FaultSpec + seed into live injections, plugging into Network::run
// through an instance pointer or, for the calling thread, the RAII
// ScopedFaultInjection.
//
// Per run, the controller derives an *effective* plan seed by mixing the
// base seed with the topology fingerprint and the run ordinal (its
// "epoch"): plan = f(seed, topology, run index). Distinct graphs inside
// one pipeline therefore draw independent fault streams, and a *retry* of
// a failed stage sees fresh faults — the property the retry loop
// (faults/recovery.hpp) relies on — while the whole execution remains a
// deterministic, replayable function of the one base seed.
//
// Injections are counted (FaultCounters) and mirrored into the global
// metrics registry when one is installed: "faults/dropped",
// "faults/duplicated", "faults/stalled", "faults/reordered",
// "faults/crashed" counters plus a per-run "faults/injected" histogram.

#include <cstdint>

#include "congest/network.hpp"
#include "faults/plan.hpp"

namespace plansep::faults {

/// Running totals of every injection the controller performed.
struct FaultCounters {
  long long dropped = 0;     ///< messages silently lost
  long long duplicated = 0;  ///< messages delivered twice
  long long stalled = 0;     ///< messages delayed one round
  long long reordered = 0;   ///< inbox permutations applied
  long long crashed = 0;     ///< node-rounds suppressed by crashes
  long long runs = 0;        ///< Network::run calls observed
  /// Total individual injections (crash suppressions included).
  long long injected() const {
    return dropped + duplicated + stalled + reordered + crashed;
  }
};

/// Seeded deterministic fault injector. Mutations (the counters, the
/// epoch) happen on the thread driving Network::run, like every other
/// sink; one controller must not observe two concurrently running
/// networks.
class FaultController final : public congest::FaultInjector {
 public:
  /// A controller with the empty plan: attaches cleanly, injects nothing,
  /// perturbs nothing (byte-identical runs — see tests/faults_test.cpp).
  FaultController() = default;
  /// A controller injecting at `spec`'s intensities, seeded with `seed`.
  FaultController(const FaultSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {}

  void on_run_begin(const EmbeddedGraph& g) override;
  void on_run_end() override;
  bool crashed(int round, NodeId v) override;
  Fate fate(int round, NodeId from, NodeId to) override;
  std::uint64_t reorder_seed(int round, NodeId to) override;

  /// The intensity knobs this controller injects at.
  const FaultSpec& spec() const { return spec_; }
  /// The base seed (epoch 0); per-run effective seeds derive from it.
  std::uint64_t seed() const { return seed_; }
  /// Injection totals so far (pending run included).
  const FaultCounters& counters() const { return counters_; }
  /// Number of runs started (the next run's epoch).
  int epoch() const { return epoch_; }
  /// The effective plan of the run currently (or last) observed.
  const FaultPlan& current_plan() const { return plan_; }

 private:
  void fold_run();

  FaultSpec spec_;
  std::uint64_t seed_ = 0;
  FaultPlan plan_;
  FaultCounters counters_;
  long long run_injected_ = 0;
  int epoch_ = 0;
  bool run_open_ = false;
};

/// RAII: installs an injector (usually a FaultController) as the calling
/// thread's, restoring the thread's previous injector on destruction. The
/// way tests, the chaos harness and fault jobs subject networks, including
/// those constructed inside a pipeline, to a fault plan; networks run on
/// other threads are unaffected.
class ScopedFaultInjection {
 public:
  /// Installs `injector` on the calling thread for the scope's lifetime.
  explicit ScopedFaultInjection(congest::FaultInjector& injector)
      : prev_(congest::set_thread_fault_injector(&injector)) {}
  ~ScopedFaultInjection() { congest::set_thread_fault_injector(prev_); }  ///< restores
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;  ///< non-copyable
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;  ///< non-copyable

 private:
  congest::FaultInjector* prev_;
};

}  // namespace plansep::faults
