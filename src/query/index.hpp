#pragma once

/// \file
/// The distance-oracle index over a separator hierarchy: flattened
/// per-node ancestor chains with distance blocks to every ancestor's
/// separator nodes, plus exact intra-leaf tables.

// The query index (ROADMAP: "serve answers, not runs").
//
// For every node v the index stores v's root-to-terminal piece chain —
// the pieces of the hierarchy that contain v, from v's component root
// down to either v's leaf or the piece whose separator absorbed v — and,
// aligned with the chain, one distance block per ancestor piece: the
// BFS-within-that-piece distance from v to each of the piece's separator
// nodes (-1 when unreachable inside the piece). Leaves additionally get a
// row-major all-pairs table of BFS-within-leaf distances.
//
// A distance query dist(u, v) then walks the common prefix of the two
// chains (pieces are appended in BFS order by build_hierarchy, so the
// position of a piece in a chain equals its level) and minimizes
// d_p(u, s) + d_p(v, s) over every separator node s of every common
// ancestor piece p, falling back to the intra-leaf table when u and v
// share a leaf. Exactness: a shortest u–v path π lies entirely inside the
// deepest piece p* containing both endpoints' chains' common prefix — by
// construction distinct children of a piece are non-adjacent, so π cannot
// leave p* without touching sep(p*). Either π meets some s ∈ sep(p*)
// (then the p* term is exact, since π ⊆ p* means d_p*(·, s) agrees with
// the true distance along π), or p* is a leaf containing u and v and the
// leaf table is exact. Space is Σ_p |sep(p)|·|p| + Σ_leaf |leaf|² —
// O(√n · log n)-style for separator-friendly families — and a query costs
// the total separator size along one chain, O(sep · log n).
//
// Determinism: the index is a pure function of (graph, hierarchy). Piece
// BFS visits neighbors in rotation order from a node-id-ordered local
// CSR, so rebuilding any piece reproduces its block bytes exactly.

#include <cstdint>
#include <vector>

#include "separator/hierarchy.hpp"

namespace plansep::query {

using planar::NodeId;

/// Distance value for "unreachable within the piece / graph".
inline constexpr std::int32_t kUnreachable = -1;

/// The flattened oracle arrays. All offsets index the array named in the
/// comment; every field is part of the kQueryIndex persistence format.
struct QueryIndex {
  std::int32_t leaf_size = 0;  ///< hierarchy leaf bound (cache identity)
  NodeId num_nodes = 0;        ///< graph size the index covers

  // Piece tables, indexed by hierarchy piece id.
  std::vector<std::int32_t> piece_level;  ///< level per piece
  std::vector<std::int64_t> sep_off;      ///< pieces+1 offsets into sep_nodes
  std::vector<NodeId> sep_nodes;          ///< concatenated separator lists

  // Per-node ancestor chains, root first. path_off has n+1 entries;
  // path_piece[path_off[v] + l] is v's level-l ancestor piece.
  std::vector<std::int64_t> path_off;
  std::vector<std::int32_t> path_piece;
  /// Aligned with path_piece: start of that ancestor's distance block in
  /// `dist` (the block has sep count of that piece entries).
  std::vector<std::int64_t> block_off;
  /// All distance blocks, concatenated; kUnreachable = not reachable
  /// inside the piece.
  std::vector<std::int32_t> dist;

  // Intra-leaf all-pairs tables.
  std::vector<std::int32_t> leaf_pos;      ///< index within own leaf; -1 for
                                           ///< separator nodes
  std::vector<std::int64_t> leaf_tab_off;  ///< pieces+1; empty range for
                                           ///< non-leaf pieces
  std::vector<std::int32_t> leaf_tab;      ///< row-major |leaf|² blocks

  /// Separator-node count of piece p.
  std::int32_t sep_count(int p) const {
    return static_cast<std::int32_t>(sep_off[static_cast<std::size_t>(p) + 1] -
                                     sep_off[static_cast<std::size_t>(p)]);
  }
  /// Chain length (ancestor pieces) of node v.
  std::int32_t path_len(NodeId v) const {
    return static_cast<std::int32_t>(path_off[static_cast<std::size_t>(v) + 1] -
                                     path_off[static_cast<std::size_t>(v)]);
  }
  /// Total bytes across all index arrays (footprint reporting).
  std::size_t byte_size() const;
};

/// An optional set of killed undirected edges, keyed min(u,v)<<32|max.
/// Null/empty means "no edges killed".
struct EdgeSet {
  std::vector<std::uint64_t> sorted_keys;  ///< ascending, unique

  /// Canonical key of the undirected edge {u, v}.
  static std::uint64_t key(NodeId u, NodeId v);
  /// Membership test (binary search).
  bool contains(NodeId u, NodeId v) const;
  /// Inserts the edge (keeps the keys sorted; duplicate is a no-op).
  void insert(NodeId u, NodeId v);
  bool empty() const { return sorted_keys.empty(); }
};

/// Reused scratch buffers for piece BFS.
struct PieceWorkspace {
  std::vector<std::int32_t> local_of;  ///< node → local id (piece-scoped)
  std::vector<std::int32_t> adj_off;   ///< local CSR offsets
  std::vector<std::int32_t> adj;       ///< local CSR neighbor ids
  std::vector<std::int32_t> ldist;     ///< BFS distances (local ids)
  std::vector<std::int32_t> queue;     ///< BFS queue (local ids)
};

/// Recomputes piece p's distance blocks in place: for every member node,
/// BFS-within-the-piece distances to each of p's separator nodes, written
/// at the member's block for p. `killed` (nullable) suppresses edges —
/// the invalidation rebuild path; the builder passes null. Writes only
/// p's blocks, so concurrent calls on distinct pieces are race-free.
void solve_piece(const planar::EmbeddedGraph& g,
                 const separator::SeparatorHierarchy& h, int p, QueryIndex& qi,
                 const EdgeSet* killed, PieceWorkspace& ws);

/// Recomputes leaf piece p's all-pairs table in place (same contract as
/// solve_piece).
void solve_leaf(const planar::EmbeddedGraph& g,
                const separator::SeparatorHierarchy& h, int p, QueryIndex& qi,
                const EdgeSet* killed, PieceWorkspace& ws);

/// Builds the full index from a built hierarchy. Pure function of
/// (g, h, leaf_size).
QueryIndex build_query_index(const planar::EmbeddedGraph& g,
                             const separator::SeparatorHierarchy& h,
                             int leaf_size);

}  // namespace plansep::query
