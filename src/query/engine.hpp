#pragma once

/// \file
/// QueryEngine: batch point-to-point distance/reachability answers over a
/// QueryIndex, with edge-kill invalidation that lazily rebuilds only the
/// affected hierarchy pieces.

// The servable oracle. An engine owns (graph, hierarchy, index) — usually
// decoded from one cached .psg artifact — and answers:
//
//   distance(u, v)   exact unweighted shortest-path distance, -1 when
//                    unreachable;
//   reachable(u, v)  distance(u, v) >= 0 without the arithmetic.
//
// Invalidation (the fault layer's edge-kill hook): kill_edge(a, b) marks
// dirty exactly the pieces containing both endpoints — the common prefix
// of the two nodes' ancestor chains, the only pieces whose within-piece
// BFS could traverse the edge — and queries lazily rebuild a dirty piece
// the first time they scan it (solve_piece/solve_leaf with the killed
// set). Child pieces of a split stay mutually non-adjacent when edges are
// only removed, so the oracle stays exact over the *old* hierarchy
// structure; no re-split is needed (pinned against a fresh rebuild on the
// edge-deleted graph by tests/query_test.cpp).
//
// Threading: concurrent distance() calls are safe on an engine with no
// kills outstanding (the hot path only reads; counters are relaxed
// atomics). After kill_edge the engine mutates lazily — rebuilds are
// mutex-guarded, but callers should treat a killed engine as
// session-private (query::EngineCache never shares one).

#include <cstdint>
#include <mutex>
#include <atomic>
#include <utility>
#include <vector>

#include "planar/embedded_graph.hpp"
#include "query/index.hpp"
#include "separator/hierarchy.hpp"

namespace plansep::query {

/// Monotonic engine counters (a snapshot; see QueryEngine::counters).
struct QueryCounters {
  long long queries = 0;         ///< distance/reachable calls answered
  long long pieces_scanned = 0;  ///< common-ancestor pieces visited
  long long sep_terms = 0;       ///< separator min-terms evaluated
  long long leaf_pairs = 0;      ///< queries resolved via an intra-leaf table
  long long edges_killed = 0;    ///< kill_edge calls that removed an edge
  long long pieces_dirtied = 0;  ///< pieces newly marked dirty by kills
  long long pieces_rebuilt = 0;  ///< lazy piece rebuilds actually run
};

/// Batch distance/reachability oracle over a separator-hierarchy index.
class QueryEngine {
 public:
  /// Takes ownership of a matching (graph, hierarchy, index) triple.
  QueryEngine(planar::EmbeddedGraph g, separator::SeparatorHierarchy h,
              QueryIndex qi);

  /// Exact unweighted distance from u to v; kUnreachable (-1) when no
  /// path exists. Throws CheckError on out-of-range nodes.
  std::int64_t distance(NodeId u, NodeId v);
  /// distance(u, v) >= 0.
  bool reachable(NodeId u, NodeId v);
  /// Batch form: one distance per input pair, in order.
  std::vector<std::int64_t> distances(
      const std::vector<std::pair<NodeId, NodeId>>& pairs);

  /// Kills the undirected edge {a, b}: future queries behave as if the
  /// edge were deleted. Marks dirty only the pieces containing both
  /// endpoints; queries rebuild those lazily. Unknown or already-killed
  /// edges are no-ops.
  void kill_edge(NodeId a, NodeId b);

  /// Counter snapshot (consistent enough for tests; relaxed reads).
  QueryCounters counters() const;
  /// Pieces currently marked dirty (0 on a kill-free engine).
  long long dirty_pieces() const { return dirty_count_.load(std::memory_order_relaxed); }

  const planar::EmbeddedGraph& graph() const { return g_; }
  const separator::SeparatorHierarchy& hierarchy() const { return h_; }
  const QueryIndex& index() const { return qi_; }

 private:
  // Rebuilds piece p against the killed set (caller holds rebuild_mu_).
  void rebuild_piece_locked(int p);
  // Scans dirty pieces along the common chain prefix and rebuilds them.
  void rebuild_dirty_on_paths(NodeId u, NodeId v);

  planar::EmbeddedGraph g_;
  separator::SeparatorHierarchy h_;
  QueryIndex qi_;
  EdgeSet killed_;
  std::vector<char> dirty_;              // per piece
  std::atomic<long long> dirty_count_{0};
  std::mutex rebuild_mu_;
  PieceWorkspace ws_;  // guarded by rebuild_mu_

  std::atomic<long long> queries_{0};
  std::atomic<long long> pieces_scanned_{0};
  std::atomic<long long> sep_terms_{0};
  std::atomic<long long> leaf_pairs_{0};
  long long edges_killed_ = 0;    // kill path is single-threaded
  long long pieces_dirtied_ = 0;
  long long pieces_rebuilt_ = 0;
};

}  // namespace plansep::query
