#include "taskgraph/graph.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace plansep::taskgraph {

namespace {

using Clock = std::chrono::steady_clock;

long long ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
}

}  // namespace

void TaskGraphCounters::merge(const TaskGraphCounters& o) {
  tasks_run += o.tasks_run;
  cache_served += o.cache_served;
  io_tasks += o.io_tasks;
  overlapped_io_ms += o.overlapped_io_ms;
  for (const auto& [name, n] : o.runs) runs[name] += n;
}

// -------------------------------------------------------------- recording --

TaskGraph::TaskGraph(std::string name) : name_(std::move(name)) {}

void TaskGraph::add(TaskDef d) {
  PLANSEP_CHECK_MSG(!d.name.empty(), "task needs a name");
  PLANSEP_CHECK_MSG(by_name_.find(d.name) == by_name_.end(),
                    "duplicate task name");
  PLANSEP_CHECK_MSG(static_cast<bool>(d.run), "task needs a body");
  for (const std::string& dep : d.deps) {
    PLANSEP_CHECK_MSG(by_name_.find(dep) != by_name_.end(),
                      "task dep must be recorded first");
  }
  const int index = static_cast<int>(tasks_.size());
  by_name_[d.name] = index;
  if (d.io) io_tasks_.push_back(index);
  tasks_.push_back(std::move(d));
}

int TaskGraph::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

// -------------------------------------------------------------- execution --

Execution::Execution(const TaskGraph& g, const JobInputs& in,
                     serve::ArtifactCache* cache)
    : graph_(g), in_(in), cache_(cache) {
  nodes_.resize(static_cast<std::size_t>(g.size()));
  start_ = Clock::now();
  if (!g.io_tasks().empty()) {
    io_thread_ = std::thread([this] {
      // Failures land in the node's error slot; finish_io() rethrows them
      // on the requesting thread.
      for (const int i : graph_.io_tasks()) resolve_noexcept(i);
      std::lock_guard<std::mutex> lk(mu_);
      io_end_ = Clock::now();
    });
  }
}

Execution::~Execution() {
  if (io_thread_.joinable()) io_thread_.join();
}

void Execution::resolve_noexcept(int i) noexcept {
  try {
    resolve(i);
  } catch (...) {
    // Already recorded in the node; rethrown at finish_io()/request().
  }
}

serve::CacheKey Execution::key_of(const TaskDef& t) const {
  const std::uint64_t config = t.config ? t.config(in_) : in_.config_hash;
  return serve::CacheKey{in_.fingerprint, t.artifact, config};
}

serve::ArtifactCache::Value Execution::request(const std::string& task) {
  const int i = graph_.index_of(task);
  PLANSEP_CHECK_MSG(i >= 0, "unknown task requested");
  resolve(i);
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_[static_cast<std::size_t>(i)].bytes;
}

std::shared_ptr<void> Execution::value(const std::string& task) {
  const int i = graph_.index_of(task);
  PLANSEP_CHECK_MSG(i >= 0, "unknown task requested");
  resolve(i);
  std::lock_guard<std::mutex> lk(mu_);
  return nodes_[static_cast<std::size_t>(i)].value;
}

void Execution::resolve(int i) {
  Node& node = nodes_[static_cast<std::size_t>(i)];
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (node.state == State::kDone) return;
      if (node.state == State::kFailed) std::rethrow_exception(node.error);
      if (node.state == State::kIdle) break;
      cv_.wait(lk);  // kRunning: another requester computes it
    }
    node.state = State::kRunning;
  }

  const TaskDef& t = graph_.task(i);
  serve::ArtifactCache::Value bytes;
  std::shared_ptr<void> value;
  std::exception_ptr error;
  bool ran = false;
  try {
    TaskContext ctx{*this, t, in_};
    if (!t.artifact.empty() && cache_ != nullptr) {
      bytes = cache_->get_or_compute(key_of(t), [&] {
        ran = true;
        return t.run(ctx).bytes;
      });
    } else {
      ran = true;
      TaskOutput out = t.run(ctx);
      value = std::move(out.value);
      if (!out.bytes.empty() || !t.artifact.empty()) {
        bytes = std::make_shared<const std::vector<std::uint8_t>>(
            std::move(out.bytes));
      }
    }
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (error != nullptr) {
      node.state = State::kFailed;
      node.error = error;
    } else {
      node.state = State::kDone;
      node.bytes = std::move(bytes);
      node.value = std::move(value);
      if (t.io) {
        // IO bodies are side effects, not compute: they rerun every
        // execution (never cached), so folding them into tasks_run would
        // break its cache-temperature invariance.
        ++counters_.io_tasks;
      } else if (ran) {
        ++counters_.tasks_run;
        ++counters_.runs[t.name];
      } else {
        ++counters_.cache_served;
      }
    }
  }
  cv_.notify_all();
  if (error != nullptr) std::rethrow_exception(error);
}

void Execution::finish_io() {
  const Clock::time_point compute_end = Clock::now();
  if (io_thread_.joinable()) io_thread_.join();
  std::unique_lock<std::mutex> lk(mu_);
  if (!graph_.io_tasks().empty() && !io_finished_) {
    io_finished_ = true;
    // The overlap window: IO finished at io_end_, compute at compute_end;
    // both ran from start_, so min(end) - start is time spent doing both.
    counters_.overlapped_io_ms =
        std::max(0LL, ms_between(start_, std::min(io_end_, compute_end)));
  }
  for (const int i : graph_.io_tasks()) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (node.state == State::kFailed) {
      std::exception_ptr error = node.error;
      lk.unlock();
      std::rethrow_exception(error);
    }
  }
}

TaskGraphCounters Execution::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

// ---------------------------------------------------------------- context --

int TaskContext::dep_index(const std::string& dep) const {
  const bool declared =
      std::find(self.deps.begin(), self.deps.end(), dep) != self.deps.end();
  PLANSEP_CHECK_MSG(declared, "task read an undeclared dep");
  return exec.graph_.index_of(dep);
}

serve::ArtifactCache::Value TaskContext::bytes(const std::string& dep) {
  const int i = dep_index(dep);
  exec.resolve(i);
  std::lock_guard<std::mutex> lk(exec.mu_);
  return exec.nodes_[static_cast<std::size_t>(i)].bytes;
}

std::shared_ptr<void> TaskContext::value(const std::string& dep) {
  const int i = dep_index(dep);
  exec.resolve(i);
  std::lock_guard<std::mutex> lk(exec.mu_);
  return exec.nodes_[static_cast<std::size_t>(i)].value;
}

}  // namespace plansep::taskgraph
