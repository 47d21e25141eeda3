#pragma once

/// \file
/// The stages every batch, daemon and query job computes through: one
/// typed Stages object per job, the fault-job recovery stages, the
/// per-job counters, and the artifact-id registry the daemon's boot
/// warm-up preloads from.

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
// the spanning tree. The tree lookup and the engine build therefore run
// inside the consuming artifact's compute, and a job builds each of them
// at most once. The cache's single-flight shares an artifact's compute
// across concurrent jobs on one fingerprint.
//
// Fault jobs (any of --drop/--dup/--stall/--reorder/--crash/--outage) run
// recover_separator, recover_dfs and recover_baseline instead: uncached,
// since their bytes depend on the fault plan, under the job's
// faults::FaultController. Side effects stay outside: the corpus store of
// a generated instance is serve::store_instance, started beside
// acquisition.
//
// Determinism (DESIGN.md §10, docs/TASKGRAPH.md): every stage's bytes are
// a pure function of the bytes of the stages below it and the job inputs.
// Stage bodies replay the core library's call sequences verbatim (down to
// the "pa/setup_bfs" span around the BFS wave), and consumers decode the
// spanning tree's *bytes*, never live sibling state. So a job's artifacts
// equal the core library's (core/plansep.hpp) at any thread count and any
// cache temperature. The spanning tree ("spantree@v1", .psg
// kSpanningTree) and the baseline's level separator ("lt-level@v1",
// kLevelSeparator) are sub-artifact sections.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/recovery.hpp"
#include "planar/embedded_graph.hpp"
#include "serve/cache.hpp"

namespace plansep::shortcuts {
class PartwiseEngine;
}  // namespace plansep::shortcuts

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
/// metrics deterministic).
///
/// For a fixed job list, the per-artifact runs (every stage but the
/// engine) do not depend on the schedule: the cache runs one compute per
/// key. The rest do. A job that leads a separator or DFS flight builds
/// its own engine and looks the tree up once more, so tasks_run,
/// cache_served and the engine runs depend on which concurrent job leads
/// which flight.
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
  ~Stages();
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
  shortcuts::PartwiseEngine& engine();
  /// The artifact under `key`, through the cache. Counts one run of
  /// `stage`, or one cache_served.
  serve::ArtifactCache::Value resolve(
      const char* stage, const serve::CacheKey& key,
      const std::function<std::vector<std::uint8_t>()>& compute);

  JobInputs in_;
  serve::ArtifactCache& cache_;
  serve::ArtifactCache::Value tree_;                  // built at most once
  std::unique_ptr<shortcuts::PartwiseEngine> engine_;  // built at most once
  TaskGraphCounters counters_;
};

/// A fault job's stage: the payload its clean twin caches (empty when the
/// recovery driver gave up) and the driver's retry history.
struct Recovered {
  std::vector<std::uint8_t> bytes;  ///< the stage's artifact bytes
  faults::RetryStats retry;         ///< how recovery went
};

/// Fault-job separator: faults::compute_separator_with_recovery under
/// the default RetryPolicy.
Recovered recover_separator(const JobInputs& in);
/// Fault-job DFS: faults::build_dfs_tree_with_recovery under the default
/// RetryPolicy.
Recovered recover_dfs(const JobInputs& in);
/// Fault-job baseline: the level search over a fresh BFS wave. It has no
/// recovery driver, so a wave the plan breaks throws.
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
