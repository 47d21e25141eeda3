// serve::run_batch, defined beside the scheduler it runs on: the batch is
// one in-process client of daemon::Dispatcher, so admission and delivery
// order live in one place (dispatcher.hpp).

#include <algorithm>
#include <chrono>
#include <ostream>
#include <variant>

#include "daemon/dispatcher.hpp"
#include "obs/metrics.hpp"
#include "serve/batch.hpp"

namespace plansep::serve {

BatchReport run_batch(const std::vector<JobSpec>& jobs,
                      const BatchOptions& opts, ResultCache& cache,
                      std::ostream* rows_out) {
  using Clock = std::chrono::steady_clock;
  const CacheCounters before = cache.counters();

  BatchReport rep;
  rep.jobs = static_cast<long long>(jobs.size());
  rep.results.reserve(jobs.size());
  std::vector<long long> latency_ms;  // admission to delivery
  latency_ms.reserve(jobs.size());
  {
    const std::size_t whole = std::max<std::size_t>(jobs.size(), 1);
    daemon::DispatcherOptions dopts;
    dopts.workers = static_cast<int>(
        std::min<std::size_t>(std::max(opts.threads, 1), whole));
    dopts.max_queue = whole;
    dopts.per_client_quota = static_cast<long long>(whole);
    dopts.batch = opts;
    daemon::DaemonMetrics discarded;  // the dispatcher's daemon/* counters
    daemon::Dispatcher disp(dopts, cache, discarded);

    std::vector<Clock::time_point> admitted(jobs.size());
    // Callbacks arrive one at a time, in admission order: no lock needed.
    const auto deliver = [&](const daemon::JobDone& done) {
      latency_ms.push_back(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - admitted[done.id])
              .count());
      rep.results.push_back(std::get<JobResult>(done.outcome));
      if (rows_out != nullptr) {
        (*rows_out) << rep.results.back().row << '\n';
        rows_out->flush();
      }
    };
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      admitted[i] = Clock::now();
      disp.submit({0, i, daemon::Priority::kNormal, jobs[i]}, deliver);
    }
    disp.drain();
  }

  rep.cache = cache.counters() - before;
  for (const JobResult& r : rep.results) {
    rep.taskgraph.merge(r.taskgraph);
    if (r.status == "ok") {
      ++rep.ok;
    } else if (r.status == "check_failed") {
      ++rep.check_failed;
    } else if (r.status == "deadline") {
      ++rep.deadline_missed;
    } else {
      ++rep.errors;
    }
  }

  if (obs::MetricsRegistry* reg = obs::global_registry()) {
    reg->add("serve/jobs", rep.jobs);
    reg->add("serve/jobs_ok", rep.ok);
    reg->add("serve/check_failed", rep.check_failed);
    reg->add("serve/deadline_missed", rep.deadline_missed);
    reg->add("serve/errors", rep.errors);
    reg->add("serve/cache_hits", rep.cache.hits);
    reg->add("serve/cache_disk_hits", rep.cache.disk_hits);
    reg->add("serve/cache_misses", rep.cache.misses);
    reg->add("serve/cache_served_warm", rep.cache.served_without_compute());
    reg->add("serve/cache_evictions", rep.cache.evictions);
    // Stage counters, folded after the jobs (stages never touch obs
    // globals). Which of them depend on the schedule:
    // taskgraph::TaskGraphCounters.
    reg->add("taskgraph/tasks_run", rep.taskgraph.tasks_run);
    reg->add("taskgraph/cache_served", rep.taskgraph.cache_served);
    for (const auto& [name, n] : rep.taskgraph.runs) {
      reg->add("taskgraph/runs/" + name, n);
    }
    obs::HistogramData& lat = reg->histogram("serve/job_latency_ms");
    for (const long long ms : latency_ms) lat.add(ms);
    // Deterministic backlog profile: the queue depth each job observed at
    // admission (jobs behind it included), independent of scheduling.
    obs::HistogramData& depth = reg->histogram("serve/queue_depth");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      depth.add(static_cast<long long>(jobs.size() - i));
    }
  }
  return rep;
}

}  // namespace plansep::serve
