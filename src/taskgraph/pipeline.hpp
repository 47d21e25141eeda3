#pragma once

/// \file
/// The stages every batch, daemon and query job computes through: one
/// typed Stages object per job, their fault-job twins, the per-job
/// counters, and the artifact-id registry the daemon's boot warm-up
/// preloads from.

// Why stages (ROADMAP "One execution path"):
//
// Every job computes its artifacts here, and nowhere else. The stages are
// the paper's natural ones, one short chain per job kind:
//
//   spanning_tree ──> engine ──> separator        ("separator@v1")
//                       │  ├───> dfs              ("dfs@v1")
//                       │  └───> hierarchy ──> query_index
//                       │                      (query::kIndexAlgorithmId)
//                       └── (in-memory PartwiseEngine)
//   spanning_tree ──────────────> baseline        ("lt-level@v1")
//
// Stages::separator(), dfs(), baseline() and query_index() return their
// artifact bytes. Each resolves through serve::ArtifactCache under
// {fingerprint, artifact id, config hash}, and only on a miss does its
// compute fetch the stages below it: a warm "separator@v1" never touches
// the spanning tree. Each artifact compute looks the tree up itself and
// builds its own engine from the tree's bytes, as compute_cycle_separator
// and compute_dfs_tree build one engine per call; nothing is memoized
// per job. The cache's single-flight runs one compute per key, shared
// across concurrent jobs on one fingerprint, so with a cache that evicts
// nothing every lookup, stage run and engine build is a pure function of
// the job list.
//
// Fault jobs (any of --drop/--dup/--stall/--reorder/--crash/--outage) run
// recover_separator, recover_dfs and recover_baseline instead: uncached,
// since their bytes depend on the fault plan, under the job's
// faults::FaultController. Each retries its clean twin's recipe through
// faults::retry_stage, over a fresh BFS wave per attempt. Side effects
// stay outside: the corpus store of a generated instance is
// serve::store_instance, started beside acquisition.
//
// Determinism (DESIGN.md §10, docs/TASKGRAPH.md): every stage's bytes are
// a pure function of the bytes of the stages below it and the job inputs.
// Stage bodies call the core library's recipes (separate_whole_graph,
// build_dfs_tree, bfs_level_separator; the spanning tree replays the
// "pa/setup_bfs" span around the BFS wave), and consumers decode the
// spanning tree's *bytes*, never live sibling state. So a job's artifacts
// equal the core library's (core/plansep.hpp) at any thread count and any
// cache temperature. The spanning tree ("spantree@v1", .psg
// kSpanningTree) and the baseline's level separator ("lt-level@v1",
// kLevelSeparator) are sub-artifact sections.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "faults/recovery.hpp"
#include "planar/embedded_graph.hpp"
#include "serve/cache.hpp"

namespace plansep::taskgraph {

// Stage names: they key TaskGraphCounters::runs, and through it the
// taskgraph/runs/<stage> and daemon/taskgraph_runs/<stage> counters.
inline constexpr const char* kSpanningTreeTask = "spanning_tree";
inline constexpr const char* kEngineTask = "engine";
inline constexpr const char* kSeparatorTask = "separator";
inline constexpr const char* kDfsTask = "dfs";
inline constexpr const char* kBaselineTask = "baseline";
inline constexpr const char* kHierarchyTask = "hierarchy";
inline constexpr const char* kQueryIndexTask = "query_index";

// Sub-artifact ids (the per-job ones — "separator@v1", "dfs@v1",
// query::kIndexAlgorithmId — predate the stages and keep their names).
inline constexpr const char* kSpanningTreeArtifactId = "spantree@v1";
inline constexpr const char* kLevelSeparatorArtifactId = "lt-level@v1";

/// Per-job counters, folded into serve/daemon metrics snapshots *after*
/// the job (never mutated through obs globals mid-run, which keeps the
/// metrics deterministic). A job's own counters say which job ran each
/// compute; their sum over a job list does not depend on the schedule.
struct TaskGraphCounters {
  long long tasks_run = 0;      ///< stage bodies actually executed
  long long cache_served = 0;   ///< artifact lookups answered without a run
  /// Bodies run per stage name (the sharing tests assert e.g. that
  /// "spanning_tree" ran exactly once across a two-algorithm batch).
  std::map<std::string, long long> runs;

  /// Counts one executed body of `stage`.
  void count_run(const char* stage);
  /// Component-wise accumulate (runs merge by name).
  void merge(const TaskGraphCounters& o);
  /// Field-wise equality.
  bool operator==(const TaskGraphCounters& o) const = default;
};

/// One job's inputs.
struct JobInputs {
  const planar::EmbeddedGraph* graph = nullptr;  ///< the instance
  planar::NodeId root = 0;          ///< pipeline root
  std::uint64_t fingerprint = 0;    ///< core::topology_fingerprint(graph)
  std::uint64_t config_hash = 0;    ///< serve cache config hash (root mix)
  std::string family;               ///< provenance family (index kMeta)
  int leaf_size = 0;                ///< query hierarchy leaf bound (query jobs)
};

/// The cache-key config hash of a job rooted at `root`; the query index
/// mixes its hierarchy leaf bound in too (leaf_size 0 mixes nothing).
std::uint64_t cache_config_hash(planar::NodeId root, int leaf_size = 0);

/// One job's stages (see the file comment). It serves one job on its
/// caller's thread and is not shared between threads.
class Stages {
 public:
  /// Binds the job's inputs and the cache its artifacts resolve through
  /// (both must outlive the stages).
  Stages(const JobInputs& in, serve::ArtifactCache& cache);
  Stages(const Stages&) = delete;             ///< non-copyable
  Stages& operator=(const Stages&) = delete;  ///< non-copyable

  /// The cycle separator artifact ("separator@v1", Theorem 1).
  serve::ArtifactCache::Value separator();
  /// The DFS tree artifact ("dfs@v1", Theorem 2).
  serve::ArtifactCache::Value dfs();
  /// The BFS-level baseline's separator ("lt-level@v1").
  serve::ArtifactCache::Value baseline();
  /// The hierarchy + query index artifact (query::kIndexAlgorithmId),
  /// keyed on query::index_cache_key.
  serve::ArtifactCache::Value query_index();

  /// The job's counters so far.
  const TaskGraphCounters& counters() const { return counters_; }

 private:
  serve::ArtifactCache::Value spanning_tree();
  /// The artifact under `key`, through the cache. Counts one run of
  /// `stage`, or one cache_served.
  serve::ArtifactCache::Value resolve(
      const char* stage, const serve::CacheKey& key,
      const std::function<std::vector<std::uint8_t>()>& compute);

  JobInputs in_;
  serve::ArtifactCache& cache_;
  TaskGraphCounters counters_;
};

/// A fault job's stage: the payload its clean twin caches (empty when
/// every attempt failed), the retry history and the round ledger.
struct Recovered {
  std::vector<std::uint8_t> bytes;  ///< the stage's artifact bytes
  faults::RetryStats retry;         ///< how recovery went
  /// Every attempt's charges plus backoff, failed stages included; the
  /// cost the bytes carry when the stage succeeded.
  shortcuts::RoundCost cost;
};

/// Fault-job separator (Theorem 1): separate_whole_graph over a fresh
/// engine, retried until separator::check_separator passes and the
/// last-resort fallback did not fire. Each attempt charges setup,
/// part-set build and engine cost.
Recovered recover_separator(const JobInputs& in);
/// Fault-job DFS (Theorem 2): build_dfs_tree over a fresh engine, retried
/// until dfs::check_dfs_tree passes. Each attempt charges its build cost.
Recovered recover_dfs(const JobInputs& in);
/// Fault-job baseline: the level search over a fresh BFS wave, retried
/// while the plan breaks the wave. The level search keeps no round
/// ledger, so its cost is the backoff alone.
Recovered recover_baseline(const JobInputs& in);

/// Every artifact algorithm id worth preloading at daemon boot for a
/// corpus-addressed instance (plansepd --warm-from-corpus).
const std::vector<std::string>& warmable_artifact_ids();

/// Outcome of a boot warm-up sweep.
struct WarmReport {
  long long instances = 0;  ///< corpus entries visited
  long long artifacts = 0;  ///< artifacts now resident in memory
};

/// Boot warm-up (plansepd --warm-from-corpus): for every instance in the
/// corpus, preloads each warmable artifact from the cache's disk tier into
/// memory under the root-0 configuration — the root every corpus-addressed
/// (graph-path) job binds, and the root_hint of most generator families —
/// so the first job of a session is served warm. Pure preloading: nothing
/// is ever computed, absent disk payloads are skipped silently.
WarmReport warm_from_corpus(serve::ArtifactCache& cache,
                            const std::string& corpus_root);

}  // namespace plansep::taskgraph
