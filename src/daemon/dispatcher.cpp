#include "daemon/dispatcher.hpp"

#include <algorithm>
#include <utility>

#include "core/fingerprint.hpp"

namespace plansep::daemon {

Dispatcher::Dispatcher(DispatcherOptions opts, serve::ArtifactCache& cache,
                       DaemonMetrics& metrics)
    : opts_(std::move(opts)),
      cache_(cache),
      metrics_(metrics),
      engine_cache_(opts_.engine_capacity) {
  opts_.workers = std::max(1, opts_.workers);
  opts_.max_queue = std::max<std::size_t>(1, opts_.max_queue);

  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Dispatcher::~Dispatcher() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

Admission Dispatcher::submit(Submission s, CompletionFn done) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.add("daemon/submitted");
    if (draining_ || stopping_) {
      metrics_.add("daemon/rejected_draining");
      return Admission::kDraining;
    }
    const auto held = clients_.find(s.client);
    if ((held == clients_.end() ? 0 : held->second.outstanding) >=
        opts_.per_client_quota) {
      metrics_.add("daemon/rejected_quota");
      return Admission::kQuotaExceeded;
    }
    const std::size_t depth = high_.size() + normal_.size();
    if (depth >= opts_.max_queue) {
      metrics_.add("daemon/rejected_backpressure");
      return Admission::kQueueFull;
    }
    Client& c = clients_[s.client];
    ++c.outstanding;
    metrics_.add("daemon/admitted");
    metrics_.sample("daemon/queue_depth", static_cast<long long>(depth + 1));
    Item item{std::move(s), std::move(done), c.next_seq++};
    if (item.sub.priority == Priority::kHigh) {
      high_.push_back(std::move(item));
    } else {
      normal_.push_back(std::move(item));
    }
  }
  work_cv_.notify_one();
  return Admission::kAdmitted;
}

void Dispatcher::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void Dispatcher::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Dispatcher::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    paused_ = false;
  }
  work_cv_.notify_all();
  wait_idle();
}

void Dispatcher::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] {
    return high_.empty() && normal_.empty() && running_ == 0;
  });
}

std::size_t Dispatcher::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_.size() + normal_.size();
}

long long Dispatcher::outstanding(std::uint64_t client) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.outstanding;
}

bool Dispatcher::chaos_fires(std::uint64_t id, int attempt) const {
  if (opts_.chaos_crash_prob <= 0) return false;
  // The final attempt never crashes, so every job eventually delivers the
  // same payload a chaos-free run would.
  constexpr int kMaxAttempts = 3;
  if (attempt + 1 >= kMaxAttempts) return false;
  const std::uint64_t h = core::mix_seed(
      opts_.chaos_seed, id, static_cast<std::uint64_t>(attempt),
      0x63686170736f63ULL /* "chaos" */);
  // Uniform [0, 1) from the hash's top 53 bits (the fault-plan idiom).
  return static_cast<double>(h >> 11) * 0x1.0p-53 < opts_.chaos_crash_prob;
}

void Dispatcher::execute(Item item) {
  JobDone done{item.sub.client, item.sub.id, {}};
  done.outcome = std::visit(
      [&](const auto& job) -> JobDone::Outcome {
        try {
          return run(job, done.id);
        } catch (const std::exception& e) {
          // Nothing a job throws escapes its worker: it becomes the job's
          // error outcome.
          decltype(run(job, done.id)) out;
          out.status = "error";
          out.error = e.what();
          return out;
        }
      },
      item.sub.job);

  const int attempts = std::visit(
      [this](const auto& out) {
        if (out.status == "error") metrics_.add("daemon/errors");
        return fold_metrics(out);
      },
      done.outcome);
  metrics_.add("daemon/completed");
  metrics_.job_completed(done.id, attempts);
  finish(item.seq, std::move(item.done), std::move(done));
}

void Dispatcher::finish(std::uint64_t seq, CompletionFn fn, JobDone done) {
  const std::uint64_t client = done.client;
  std::unique_lock<std::mutex> lk(mu_);
  Client& c = clients_.at(client);
  c.finished.emplace(seq, std::make_pair(std::move(fn), std::move(done)));
  if (!c.flushing) {
    // Only the flusher delivers, frees slots or erases the entry, so `c`
    // stays valid across the unlocked callbacks.
    c.flushing = true;
    for (auto it = c.finished.begin();
         it != c.finished.end() && it->first == c.next_deliver;
         it = c.finished.begin()) {
      auto [cb, ready] = std::move(it->second);
      c.finished.erase(it);
      ++c.next_deliver;
      lk.unlock();
      if (cb) cb(ready);
      lk.lock();
      --c.outstanding;
    }
    c.flushing = false;
    if (c.outstanding == 0) clients_.erase(client);
  }
  --running_;
  lk.unlock();
  idle_cv_.notify_all();
}

serve::JobResult Dispatcher::run(const serve::JobSpec& spec,
                                 std::uint64_t id) {
  for (int attempt = 0;; ++attempt) {
    serve::JobResult result =
        serve::run_single_job(spec, id, opts_.batch, cache_);
    if (!chaos_fires(id, attempt)) return result;
    // Simulated worker crash: the attempt's result is discarded and the
    // job re-runs. Payload determinism is untouched — run_single_job is a
    // pure function of (spec, id, artifact bytes).
    metrics_.add("daemon/chaos_crashes");
    metrics_.add("daemon/retries");
  }
}

query::QueryOutcome Dispatcher::run(
    const std::shared_ptr<const query::QueryJob>& job, std::uint64_t) {
  // Query jobs never install the fault injector and are pure functions of
  // (job, artifact bytes), so chaos re-runs would buy nothing.
  return query::run_query_job(*job, opts_.batch, cache_, &engine_cache_);
}

IngestOutcome Dispatcher::run(const std::shared_ptr<const IngestJob>& job,
                              std::uint64_t) {
  // Ingest jobs are pure functions of (text, options) plus one idempotent
  // corpus write, so a single attempt suffices too.
  ingest::IngestOptions opts = job->options;
  opts.corpus_root = opts_.batch.corpus_dir;
  IngestOutcome out;
  try {
    const ingest::IngestResult res = ingest::ingest_string(job->text, opts);
    out.status = "ok";
    out.fingerprint = res.meta.fingerprint;
    out.corpus_path = res.corpus_file;
    out.nodes = res.graph.num_nodes();
    out.edges = res.graph.num_edges();
  } catch (const ingest::IngestError& e) {
    out.status = "rejected";
    out.error_code = static_cast<std::uint8_t>(e.code());
    out.error = e.what();
    out.witness = e.witness();
    if (out.witness.size() > kMaxWitnessEdges) {
      out.witness.resize(kMaxWitnessEdges);
    }
  }
  return out;
}

int Dispatcher::fold_metrics(const serve::JobResult& r) {
  if (r.status == "deadline") metrics_.add("daemon/deadline_missed");
  metrics_.taskgraph_completed(r.taskgraph);
  return r.attempts;
}

int Dispatcher::fold_metrics(const query::QueryOutcome& q) {
  metrics_.add("daemon/queries");
  metrics_.add("daemon/query_answers",
               static_cast<long long>(q.distances.size()));
  if (q.engine_cache_hit) metrics_.add("daemon/query_engine_hits");
  return 1;
}

int Dispatcher::fold_metrics(const IngestOutcome& o) {
  metrics_.add("daemon/ingests");
  if (o.status == "ok") metrics_.add("daemon/ingest_accepted");
  if (o.status == "rejected") metrics_.add("daemon/ingest_rejected");
  return 1;
}

void Dispatcher::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] {
        return stopping_ ||
               (!paused_ && (!high_.empty() || !normal_.empty()));
      });
      if (stopping_ && high_.empty() && normal_.empty()) return;
      if (paused_ || (high_.empty() && normal_.empty())) continue;
      std::deque<Item>& q = high_.empty() ? normal_ : high_;
      item = std::move(q.front());
      q.pop_front();
      ++running_;
    }
    execute(std::move(item));
  }
}

}  // namespace plansep::daemon
