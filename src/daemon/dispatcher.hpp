#pragma once

/// \file
/// plansep's job scheduler: bounded two-priority admission queue,
/// per-client quotas and delivery order, worker pool, chaos retries,
/// graceful drain.

// plansep's one job scheduler. Its clients are protocol sessions and
// serve::run_batch, which submits a job file as client 0 and drains; its
// job runners are serve::run_single_job, query::run_query_job and
// ingest::ingest_string.
//
// Admission is synchronous and bounded: submit() either admits the job
// under the lock, assigning the client's next admission sequence, or
// reports why not — queue full (backpressure), the client's quota
// exhausted, or draining. A rejected job never reaches a worker. Two
// priority classes share the capacity bound; high-priority jobs dequeue
// first, so priority affects latency, never admission.
//
// Delivery follows each client's admission order: a finished job waits
// for its predecessors, and the worker that completes the ready prefix
// runs those callbacks outside the lock (one flusher per client), then
// frees their quota slots.
//
// Jobs run on the workers, whose metrics registry, trace sink and fault
// injector slots start empty: all three are bound to the thread that
// installs them (obs/sink.hpp), so a job never reaches what the
// dispatcher's caller installed. A fault job installs its own
// FaultController on its worker thread only, so fault jobs run alongside
// other jobs and a fault job's retry history depends only on its seed.
// Chaos testing re-runs a pipeline job when a seeded coin (chaos_seed,
// job id, attempt) fires; the final attempt's payload is delivered, so it
// equals a chaos-free run's byte for byte.
//
// pause()/resume() freeze dequeueing while admission keeps running — the
// deterministic backpressure probe: pause an idle dispatcher, submit
// capacity + k jobs, and exactly k are rejected. drain() stops
// admissions, resumes dequeueing, and blocks until every admitted job
// has been delivered.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>
#include <condition_variable>

#include "daemon/metrics.hpp"
#include "daemon/protocol.hpp"
#include "ingest/pipeline.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"

namespace plansep::daemon {

/// Why (or that) an admission attempt succeeded.
enum class Admission {
  kAdmitted,       ///< queued; the completion callback will fire once
  kQueueFull,      ///< backpressure: the bounded queue is at capacity
  kQuotaExceeded,  ///< the client's outstanding-job quota is exhausted
  kDraining,       ///< the dispatcher no longer admits jobs
};

/// Dispatcher configuration.
struct DispatcherOptions {
  int workers = 2;                ///< worker threads (clamped to >= 1)
  std::size_t max_queue = 64;     ///< queued-job bound across both classes
  long long per_client_quota = 16;  ///< max outstanding jobs per client
  serve::BatchOptions batch;      ///< execution options (corpus dir)
  std::uint64_t chaos_seed = 0;   ///< seed of the chaos coin
  /// Per-attempt crash probability (0 = off). A job gets at most three
  /// attempts, and the last never crashes.
  double chaos_crash_prob = 0.0;
  std::size_t engine_capacity = 4;  ///< prepared query engines held (LRU)
};

/// One admitted edge-list admission: the untrusted text plus the
/// pipeline knobs. The dispatcher fills in the corpus root from its
/// batch options, so wire clients cannot point ingest at arbitrary
/// directories.
struct IngestJob {
  ingest::IngestOptions options;  ///< caps + policies (corpus_root ignored)
  std::string text;               ///< the edge-list bytes
};

/// The verdict of one ingest job. Never an exception across the worker
/// boundary: a rejection is a normal outcome ("rejected" + typed code),
/// mirroring how query errors travel in QueryOutcome.
struct IngestOutcome {
  /// "ok", "rejected", or "error" (the job failed outside the ingest
  /// pipeline's typed rejections, e.g. a failed corpus write).
  std::string status;
  std::uint8_t error_code = 0;    ///< ingest::IngestErrorCode; 0 when ok
  std::string error;              ///< rejection message; "" when ok
  std::uint64_t fingerprint = 0;  ///< corpus identity when ok
  std::string corpus_path;        ///< stored path ("" when unstored)
  std::int64_t nodes = 0;         ///< canonical node count when ok
  std::int64_t edges = 0;         ///< canonical edge count when ok
  std::vector<std::pair<long long, long long>> witness;  ///< non-planar
};

/// One admitted unit of work. All classes share the queue, the quota and
/// the backpressure bound — a query or ingest is admitted (or rejected)
/// exactly like a submit.
struct Submission {
  /// A pipeline job, a batched distance-query job, or an edge-list
  /// admission (the latter two shared so admitted items stay cheap to
  /// move).
  using Job = std::variant<serve::JobSpec,
                           std::shared_ptr<const query::QueryJob>,
                           std::shared_ptr<const IngestJob>>;
  std::uint64_t client = 0;  ///< client identity (quota + delivery order)
  std::uint64_t id = 0;      ///< client-chosen correlation id
  Priority priority = Priority::kNormal;  ///< scheduling class
  Job job;                   ///< what to run
};

/// Delivered to the completion callback, exactly once per admitted job.
struct JobDone {
  /// The outcome of each Submission::Job alternative, in the same order:
  /// the row (pipeline jobs), the answers (query jobs), or the admission
  /// verdict (ingest jobs).
  using Outcome =
      std::variant<serve::JobResult, query::QueryOutcome, IngestOutcome>;
  std::uint64_t client = 0;  ///< submitting client
  std::uint64_t id = 0;      ///< the submission's correlation id
  Outcome outcome;           ///< what the job produced
};

/// Admission-controlled worker pool over the job runners.
class Dispatcher {
 public:
  /// Completion callback type. Invoked on a worker thread, in the
  /// client's admission order and never concurrently with another of
  /// that client's callbacks, before the job's quota slot is released —
  /// when drain() returns, every callback has returned too.
  using CompletionFn = std::function<void(const JobDone&)>;

  /// Starts the worker pool.
  Dispatcher(DispatcherOptions opts, serve::ArtifactCache& cache,
             DaemonMetrics& metrics);
  /// Drains (if not already) and joins the workers.
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;             ///< non-copyable
  Dispatcher& operator=(const Dispatcher&) = delete;  ///< non-copyable

  /// Admits the submission or reports why not. On kAdmitted, `done` fires
  /// exactly once, on a worker thread; on any rejection it never fires.
  Admission submit(Submission s, CompletionFn done);

  /// Freezes dequeueing; admission keeps running (see the file comment).
  void pause();
  /// Thaws dequeueing.
  void resume();
  /// Stops admissions, resumes dequeueing, and blocks until every
  /// admitted job has been executed and its callback delivered.
  void drain();
  /// Blocks until the queue is empty and no job is running, without
  /// stopping admissions.
  void wait_idle();

  /// Currently queued jobs (both classes).
  std::size_t queue_depth() const;
  /// The client's outstanding (admitted, not yet delivered) jobs.
  long long outstanding(std::uint64_t client) const;
  /// The configured options.
  const DispatcherOptions& options() const { return opts_; }
  /// The prepared-engine cache (query jobs; counters for tests/metrics).
  const query::EngineCache& engine_cache() const { return engine_cache_; }

 private:
  struct Item {
    Submission sub;
    CompletionFn done;
    std::uint64_t seq = 0;  // admission order within the client
  };
  // One client's delivery state; erased once nothing is outstanding.
  struct Client {
    long long outstanding = 0;       // admitted, not yet delivered
    std::uint64_t next_seq = 0;      // next admission sequence
    std::uint64_t next_deliver = 0;  // next sequence to deliver
    // Finished jobs waiting for a predecessor, by admission sequence.
    std::map<std::uint64_t, std::pair<CompletionFn, JobDone>> finished;
    bool flushing = false;  // a worker is running this client's callbacks
  };

  void worker_loop();
  void execute(Item item);
  // Stashes a finished job; delivers the client's ready prefix unless
  // another worker is already flushing it.
  void finish(std::uint64_t seq, CompletionFn fn, JobDone done);
  // One body per request class; execute() turns anything they throw into
  // an error outcome.
  serve::JobResult run(const serve::JobSpec& spec, std::uint64_t id);
  query::QueryOutcome run(const std::shared_ptr<const query::QueryJob>& job,
                          std::uint64_t id);
  IngestOutcome run(const std::shared_ptr<const IngestJob>& job,
                    std::uint64_t id);
  // Folds one outcome's class counters in; returns its attempt count.
  int fold_metrics(const serve::JobResult& r);
  int fold_metrics(const query::QueryOutcome& q);
  int fold_metrics(const IngestOutcome& o);
  bool chaos_fires(std::uint64_t id, int attempt) const;

  DispatcherOptions opts_;
  serve::ArtifactCache& cache_;
  DaemonMetrics& metrics_;
  query::EngineCache engine_cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: work available / stop
  std::condition_variable idle_cv_;   // drain/wait_idle: queue empty + idle
  std::deque<Item> high_;
  std::deque<Item> normal_;
  std::unordered_map<std::uint64_t, Client> clients_;
  bool paused_ = false;
  bool draining_ = false;
  bool stopping_ = false;
  int running_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace plansep::daemon
