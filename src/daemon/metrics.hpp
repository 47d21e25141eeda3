#pragma once

/// \file
/// Thread-safe metrics facade of the serving daemon: a mutex-guarded
/// obs::MetricsRegistry plus cache counters folded into one JSON snapshot.

// The daemon's metrics facade.
//
// obs::MetricsRegistry demands single-threaded mutation; a daemon has
// worker and session threads bumping counters concurrently. DaemonMetrics
// wraps one registry behind a mutex and exposes only whole operations
// (bump a counter, sample a histogram, record a completed job span), so
// every registry mutation is serialized without the callers coordinating.
//
// No wall clock is recorded here; latency lives only in perfbench's rows.
// The counters are a function of the request stream and the admission
// decisions. Two parts follow the workers' schedule instead: the
// daemon/queue_depth histogram (the backlog each admission saw, which
// depends on how fast workers dequeue) and the order of the per-job
// spans (one unit slice per completed job on the analytic clock, in
// completion order).
//
// snapshot_json() folds the serving cache's CacheCounters in as
// daemon/cache_* counters (including daemon/cache_served_warm, the
// warm-hit signal the daemon tests assert on), so one document answers both
// "what did the daemon do" and "how warm was the cache".

#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "taskgraph/pipeline.hpp"

namespace plansep::daemon {

/// Mutex-guarded metrics registry shared by the daemon's threads.
class DaemonMetrics {
 public:
  /// Adds delta to the named counter.
  void add(const char* name, long long delta = 1) {
    std::lock_guard<std::mutex> lk(mu_);
    reg_.add(name, delta);
  }

  /// Records one sample into the named histogram.
  void sample(const char* name, long long v) {
    std::lock_guard<std::mutex> lk(mu_);
    reg_.histogram(name).add(v);
  }

  /// Records one completed job: a unit span named "daemon/job" on the
  /// analytic clock, annotated with the client-assigned id and attempt
  /// count. Called when a job finishes, so the Perfetto dump shows jobs
  /// in completion order.
  void job_completed(std::uint64_t id, int attempts) {
    std::lock_guard<std::mutex> lk(mu_);
    const int token = reg_.begin_span("daemon/job");
    reg_.note(token, "id", static_cast<long long>(id));
    reg_.note(token, "attempts", attempts);
    reg_.advance_analytic(1);
    reg_.end_span(token);
  }

  /// Folds one completed job's stage counters in as
  /// daemon/taskgraph_tasks_run, daemon/taskgraph_cache_served, and
  /// per-stage run counts under daemon/taskgraph_runs/<stage>. No-op when
  /// every counter is zero: the job failed, or its deadline expired before
  /// its first stage.
  void taskgraph_completed(const taskgraph::TaskGraphCounters& tg) {
    if (tg.tasks_run == 0 && tg.cache_served == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    reg_.add("daemon/taskgraph_tasks_run", tg.tasks_run);
    reg_.add("daemon/taskgraph_cache_served", tg.cache_served);
    for (const auto& [task, runs] : tg.runs) {
      reg_.add("daemon/taskgraph_runs/" + task, runs);
    }
  }

  /// Current value of a counter (0 when never touched).
  long long counter(const char* name) const {
    std::lock_guard<std::mutex> lk(mu_);
    return reg_.counter(name);
  }

  /// A copy of the registry (for trace export).
  obs::MetricsRegistry snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return reg_;
  }

  /// JSON snapshot of the registry with the cache's counters folded in as
  /// daemon/cache_hits, daemon/cache_disk_hits, daemon/cache_misses,
  /// daemon/cache_evictions and daemon/cache_served_warm.
  std::string snapshot_json(const serve::ArtifactCache& cache) const {
    const serve::CacheCounters c = cache.counters();
    std::lock_guard<std::mutex> lk(mu_);
    obs::MetricsRegistry copy = reg_;
    copy.add("daemon/cache_hits", c.hits);
    copy.add("daemon/cache_disk_hits", c.disk_hits);
    copy.add("daemon/cache_misses", c.misses);
    copy.add("daemon/cache_evictions", c.evictions);
    copy.add("daemon/cache_served_warm", c.served_without_compute());
    copy.add("daemon/cache_warmed", c.warmed);
    return copy.to_json();
  }

 private:
  mutable std::mutex mu_;
  obs::MetricsRegistry reg_;
};

}  // namespace plansep::daemon
