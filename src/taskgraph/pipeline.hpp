#pragma once

/// \file
/// The recorded task graphs of the separator/DFS pipeline, its fault-job
/// recovery twin and the query index build, plus the artifact-id registry
/// the daemon's boot warm-up preloads from.

// Three graphs, recorded once at first use and replayed per job:
//
//   pipeline_graph() — the batch/daemon job stages:
//     spanning_tree ──> engine ──> separator        ("separator@v1")
//                         │  └───> dfs              ("dfs@v1")
//                         └── (ephemeral PartwiseEngine)
//     spanning_tree ──────────────> baseline        ("lt-level@v1")
//
//   recovery_graph() — the same sinks for fault jobs (any of --drop/--dup/
//   --stall/--reorder/--crash/--outage), executed without a cache:
//     separator  (faults::compute_separator_with_recovery)
//     dfs        (faults::build_dfs_tree_with_recovery)
//     baseline   (the level search; its BFS wave is fault-deterministic)
//   The separator and dfs tasks fill the same payload as their pipeline
//   twins and hand the driver's faults::RetryStats back as their
//   ephemeral value; a driver that gave up leaves the bytes empty.
//
//   query_graph() — the persisted distance-oracle index:
//     spanning_tree ──> engine ──> hierarchy ──> query_index
//                                  (ephemeral)   (query::kIndexAlgorithmId)
//
// Task bodies replay the core library's call sequences verbatim (down to
// the "pa/setup_bfs" span around the BFS wave), and consumers decode
// dependency *bytes* — never live sibling state — which is the byte-
// identity argument spelled out in docs/TASKGRAPH.md. The spanning tree
// ("spantree@v1", .psg kSpanningTree) and the baseline's level separator
// ("lt-level@v1", kLevelSeparator) are sub-artifact sections.

#include <string>
#include <vector>

#include "taskgraph/graph.hpp"

namespace plansep::taskgraph {

// Task names (the sinks callers request).
inline constexpr const char* kSpanningTreeTask = "spanning_tree";
inline constexpr const char* kEngineTask = "engine";
inline constexpr const char* kSeparatorTask = "separator";
inline constexpr const char* kDfsTask = "dfs";
inline constexpr const char* kBaselineTask = "baseline";
inline constexpr const char* kHierarchyTask = "hierarchy";
inline constexpr const char* kQueryIndexTask = "query_index";

// New sub-artifact ids (the per-job ones — "separator@v1", "dfs@v1",
// query::kIndexAlgorithmId — predate the task graph and keep their names).
inline constexpr const char* kSpanningTreeArtifactId = "spantree@v1";
inline constexpr const char* kLevelSeparatorArtifactId = "lt-level@v1";

/// The cache-key config hash of a job rooted at `root`; the query index
/// mixes its hierarchy leaf bound in too (leaf_size 0 mixes nothing).
std::uint64_t cache_config_hash(planar::NodeId root, int leaf_size = 0);

/// The recorded batch/daemon pipeline graph (process-wide, immutable).
const TaskGraph& pipeline_graph();

/// The recorded fault-job graph (process-wide, immutable): execute it
/// without a cache, under the job's faults::FaultController.
const TaskGraph& recovery_graph();

/// The recorded query-index graph (process-wide, immutable).
const TaskGraph& query_graph();

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
