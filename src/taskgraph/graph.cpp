#include "taskgraph/graph.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace plansep::taskgraph {

void TaskGraphCounters::merge(const TaskGraphCounters& o) {
  tasks_run += o.tasks_run;
  cache_served += o.cache_served;
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
  by_name_[d.name] = static_cast<int>(tasks_.size());
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
}

serve::CacheKey Execution::key_of(const TaskDef& t) const {
  const std::uint64_t config = t.config ? t.config(in_) : in_.config_hash;
  return serve::CacheKey{in_.fingerprint, t.artifact, config};
}

serve::ArtifactCache::Value Execution::request(const std::string& task) {
  const int i = graph_.index_of(task);
  PLANSEP_CHECK_MSG(i >= 0, "unknown task requested");
  return resolve(i).bytes;
}

std::shared_ptr<void> Execution::value(const std::string& task) {
  const int i = graph_.index_of(task);
  PLANSEP_CHECK_MSG(i >= 0, "unknown task requested");
  return resolve(i).value;
}

const Execution::Node& Execution::resolve(int i) {
  // Deps are recorded before their consumers and bodies read declared
  // deps only, so a running body never re-enters its own node and no
  // in-progress state is needed.
  Node& node = nodes_[static_cast<std::size_t>(i)];
  if (node.state == State::kDone) return node;
  if (node.state == State::kFailed) std::rethrow_exception(node.error);

  const TaskDef& t = graph_.task(i);
  bool ran = false;
  try {
    TaskContext ctx{*this, t, in_};
    if (!t.artifact.empty() && cache_ != nullptr) {
      node.bytes = cache_->get_or_compute(key_of(t), [&] {
        ran = true;
        return t.run(ctx).bytes;
      });
    } else {
      ran = true;
      TaskOutput out = t.run(ctx);
      node.value = std::move(out.value);
      if (!out.bytes.empty() || !t.artifact.empty()) {
        node.bytes = std::make_shared<const std::vector<std::uint8_t>>(
            std::move(out.bytes));
      }
    }
  } catch (...) {
    node.state = State::kFailed;
    node.error = std::current_exception();
    throw;
  }
  node.state = State::kDone;
  if (ran) {
    ++counters_.tasks_run;
    ++counters_.runs[t.name];
  } else {
    ++counters_.cache_served;
  }
  return node;
}

// ---------------------------------------------------------------- context --

int TaskContext::dep_index(const std::string& dep) const {
  const bool declared =
      std::find(self.deps.begin(), self.deps.end(), dep) != self.deps.end();
  PLANSEP_CHECK_MSG(declared, "task read an undeclared dep");
  return exec.graph_.index_of(dep);
}

serve::ArtifactCache::Value TaskContext::bytes(const std::string& dep) {
  return exec.resolve(dep_index(dep)).bytes;
}

std::shared_ptr<void> TaskContext::value(const std::string& dep) {
  return exec.resolve(dep_index(dep)).value;
}

}  // namespace plansep::taskgraph
