#pragma once

/// \file
/// The phase-level task graph: a recorded DAG of named tasks producing
/// fingerprint-keyed artifacts, replayed per job by a demand-driven
/// executor that caches sub-results through serve::ArtifactCache.

// Why a task graph (ROADMAP "One execution path"):
//
// Every batch, daemon and query job computes its artifacts here, and
// nowhere else. The stages are the paper's natural ones (spanning tree,
// separator compute, DFS build, hierarchy split, the baseline's level
// search). A graph is *recorded once* per job kind (pipeline.hpp) and
// *replayed* per job against that job's inputs, Tenebris-render-graph
// style. Side effects stay outside: the corpus store of a generated
// instance is serve::store_instance, started beside acquisition.
//
// Execution model — demand-driven, not eager, on the caller's thread:
//
//   * A caller requests sink tasks by name; only the transitive
//     dependencies actually needed ever run. Crucially, an artifact task
//     answered by the cache prunes its whole subtree: a warm
//     "separator@v1" never touches the spanning tree.
//   * Artifact tasks (non-empty `artifact` id) resolve through
//     serve::ArtifactCache::get_or_compute under the key
//     {fingerprint, artifact, config_hash}. The cache's single-flight
//     dedups the compute across concurrent jobs on the same fingerprint
//     (CacheCounters::flight_joins counts those shares); a per-execution
//     memo dedups within one job.
//   * Ephemeral tasks (empty `artifact` id) carry in-memory values (e.g.
//     a prepared PartwiseEngine) between tasks of one execution and are
//     never persisted.
//
// Determinism (DESIGN.md §9, docs/TASKGRAPH.md): every task's bytes are a
// pure function of its dependencies' bytes and the job inputs, consumers
// decode dependency *bytes* (one bytes→value path, exactly like the
// serving row contract), and the executor emits no spans or counters of
// its own — so an execution's artifacts equal the core library's
// (core/plansep.hpp) at any thread count, any cache temperature. Counter
// totals (tasks_run, cache_served) are thread-count invariant by the same
// single-flight argument as CacheCounters.

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/recovery.hpp"
#include "planar/embedded_graph.hpp"
#include "serve/cache.hpp"

namespace plansep::taskgraph {

/// Per-execution counters, folded into serve/daemon metrics snapshots
/// *after* execution (never mutated through obs globals mid-run, which
/// keeps the metrics deterministic).
struct TaskGraphCounters {
  /// Task bodies actually executed. Invariant across thread counts
  /// (single-flight) and equal to the cold-run task count minus
  /// cache_served.
  long long tasks_run = 0;
  long long cache_served = 0;   ///< artifact requests answered without a run
  /// Bodies run per task name (the sharing tests assert e.g. that
  /// "spanning_tree" ran exactly once across a two-algorithm batch).
  std::map<std::string, long long> runs;

  /// Component-wise accumulate (runs merge by name).
  void merge(const TaskGraphCounters& o);
};

struct TaskContext;
struct JobInputs;

/// What one task produces: artifact tasks fill `bytes` (a canonical .psg
/// container), ephemeral tasks fill `value` (and may fill `bytes` too, like
/// the recovery graph's uncached stages).
struct TaskOutput {
  std::vector<std::uint8_t> bytes;
  std::shared_ptr<void> value;
};

/// One recorded node of the DAG.
struct TaskDef {
  std::string name;      ///< unique node name, e.g. "spanning_tree"
  /// Versioned cache algorithm id (e.g. "spantree@v1"); empty = ephemeral
  /// (never persisted, never cache-served).
  std::string artifact;
  std::vector<std::string> deps;  ///< names of previously recorded tasks
  std::function<TaskOutput(TaskContext&)> run;  ///< the task body
  /// Cache-key config hash override (e.g. the query index mixes leaf_size
  /// into its key); unset tasks use JobInputs::config_hash.
  std::function<std::uint64_t(const JobInputs&)> config;
};

/// The per-job inputs a recorded graph is replayed against.
struct JobInputs {
  const planar::EmbeddedGraph* graph = nullptr;  ///< the instance
  planar::NodeId root = 0;          ///< pipeline root
  std::uint64_t fingerprint = 0;    ///< core::topology_fingerprint(graph)
  std::uint64_t config_hash = 0;    ///< serve cache config hash (root mix)
  std::string family;               ///< provenance family (index kMeta)
  int leaf_size = 0;                ///< query hierarchy leaf bound (query jobs)
  faults::RetryPolicy retry;        ///< recovery policy (fault jobs)
};

/// A recorded DAG. Tasks are appended in dependency order (every dep must
/// already be recorded), so the recorded order *is* a topological order —
/// acyclicity by construction, and the deterministic replay order the
/// determinism argument leans on.
class TaskGraph {
 public:
  /// An empty graph with a diagnostic name.
  explicit TaskGraph(std::string name);

  /// Records a task. Checks the name is new and every dep recorded.
  void add(TaskDef d);

  /// Index of a task name; -1 when absent.
  int index_of(const std::string& name) const;
  /// The i-th recorded task.
  const TaskDef& task(int i) const { return tasks_[static_cast<std::size_t>(i)]; }
  /// Recorded task count.
  int size() const { return static_cast<int>(tasks_.size()); }
  /// The graph's diagnostic name.
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::vector<TaskDef> tasks_;
  std::map<std::string, int> by_name_;
};

/// One replay of a recorded graph against one job's inputs: a
/// demand-driven memoizing executor that runs every task body on the
/// thread that requests it. One execution serves one job; it is not
/// shared between threads.
class Execution {
 public:
  /// Binds the graph to the inputs. Artifact tasks resolve through
  /// `cache`; null recomputes everything (fault jobs, tests).
  Execution(const TaskGraph& g, const JobInputs& in,
            serve::ArtifactCache* cache = nullptr);
  Execution(const Execution&) = delete;             ///< non-copyable
  Execution& operator=(const Execution&) = delete;  ///< non-copyable

  /// Demand-runs the named task (and, transitively, whatever it actually
  /// needs) and returns its bytes. Artifact tasks resolve through the
  /// cache. A task body's exception propagates to this request and is
  /// rethrown to every later request of that task, without a rerun.
  serve::ArtifactCache::Value request(const std::string& task);

  /// Demand-runs the named task like request() and returns its ephemeral
  /// value (null when the task produces none).
  std::shared_ptr<void> value(const std::string& task);

  /// Counter snapshot.
  TaskGraphCounters counters() const { return counters_; }

  /// The bound inputs (task bodies reach them through TaskContext).
  const JobInputs& inputs() const { return in_; }

 private:
  friend struct TaskContext;

  enum class State { kIdle, kDone, kFailed };
  struct Node {
    State state = State::kIdle;
    serve::ArtifactCache::Value bytes;
    std::shared_ptr<void> value;
    std::exception_ptr error;
  };

  serve::CacheKey key_of(const TaskDef& t) const;
  /// Runs task i unless memoized; returns its node, or rethrows its
  /// recorded failure.
  const Node& resolve(int i);

  const TaskGraph& graph_;
  JobInputs in_;
  serve::ArtifactCache* cache_;
  std::vector<Node> nodes_;
  TaskGraphCounters counters_;
};

/// Dependency accessor handed to task bodies. Only declared deps may be
/// read — an undeclared access is a programming error and checks out.
struct TaskContext {
  Execution& exec;       ///< the running execution
  const TaskDef& self;   ///< the task being run
  const JobInputs& in;   ///< the bound job inputs

  /// The named dep's artifact bytes (runs it on demand).
  serve::ArtifactCache::Value bytes(const std::string& dep);
  /// The named dep's ephemeral value (runs it on demand).
  std::shared_ptr<void> value(const std::string& dep);

 private:
  int dep_index(const std::string& dep) const;
};

}  // namespace plansep::taskgraph
