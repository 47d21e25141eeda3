#include "query/index.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace plansep::query {

std::size_t QueryIndex::byte_size() const {
  return sizeof(std::int32_t) *
             (piece_level.size() + sep_nodes.size() + path_piece.size() +
              dist.size() + leaf_pos.size() + leaf_tab.size()) +
         sizeof(std::int64_t) *
             (sep_off.size() + path_off.size() + block_off.size() +
              leaf_tab_off.size());
}

std::uint64_t EdgeSet::key(NodeId u, NodeId v) {
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(u, v));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(u, v));
  return (lo << 32) | hi;
}

bool EdgeSet::contains(NodeId u, NodeId v) const {
  return std::binary_search(sorted_keys.begin(), sorted_keys.end(), key(u, v));
}

void EdgeSet::insert(NodeId u, NodeId v) {
  const std::uint64_t k = key(u, v);
  const auto it =
      std::lower_bound(sorted_keys.begin(), sorted_keys.end(), k);
  if (it == sorted_keys.end() || *it != k) sorted_keys.insert(it, k);
}

namespace {

// Builds the piece-local CSR over `members` (node-id order) into ws and
// returns the member count. ws.local_of must be n-sized and all -1 on
// entry; the caller resets the touched entries afterwards.
int build_local_csr(const planar::EmbeddedGraph& g,
                    const std::vector<NodeId>& members, const EdgeSet* killed,
                    PieceWorkspace& ws) {
  const int sz = static_cast<int>(members.size());
  for (int i = 0; i < sz; ++i) {
    ws.local_of[static_cast<std::size_t>(members[static_cast<std::size_t>(i)])] =
        i;
  }
  ws.adj_off.assign(static_cast<std::size_t>(sz) + 1, 0);
  ws.adj.clear();
  for (int i = 0; i < sz; ++i) {
    const NodeId u = members[static_cast<std::size_t>(i)];
    for (const planar::DartId d : g.rotation(u)) {
      const NodeId w = g.head(d);
      const std::int32_t lw = ws.local_of[static_cast<std::size_t>(w)];
      if (lw < 0) continue;
      if (killed != nullptr && killed->contains(u, w)) continue;
      ws.adj.push_back(lw);
    }
    ws.adj_off[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(ws.adj.size());
  }
  return sz;
}

// BFS from local source `src` over the workspace CSR; fills ws.ldist
// (kUnreachable where not reached).
void bfs_local(int sz, int src, PieceWorkspace& ws) {
  ws.ldist.assign(static_cast<std::size_t>(sz), kUnreachable);
  ws.queue.clear();
  ws.ldist[static_cast<std::size_t>(src)] = 0;
  ws.queue.push_back(src);
  for (std::size_t qh = 0; qh < ws.queue.size(); ++qh) {
    const std::int32_t u = ws.queue[qh];
    const std::int32_t du = ws.ldist[static_cast<std::size_t>(u)];
    for (std::int32_t a = ws.adj_off[static_cast<std::size_t>(u)];
         a < ws.adj_off[static_cast<std::size_t>(u) + 1]; ++a) {
      const std::int32_t w = ws.adj[static_cast<std::size_t>(a)];
      if (ws.ldist[static_cast<std::size_t>(w)] != kUnreachable) continue;
      ws.ldist[static_cast<std::size_t>(w)] = du + 1;
      ws.queue.push_back(w);
    }
  }
}

void reset_local(const std::vector<NodeId>& members, PieceWorkspace& ws) {
  for (const NodeId v : members) {
    ws.local_of[static_cast<std::size_t>(v)] = -1;
  }
}

void ensure_workspace(NodeId n, PieceWorkspace& ws) {
  if (ws.local_of.size() != static_cast<std::size_t>(n)) {
    ws.local_of.assign(static_cast<std::size_t>(n), -1);
  }
}

}  // namespace

void solve_piece(const planar::EmbeddedGraph& g,
                 const separator::SeparatorHierarchy& h, int p, QueryIndex& qi,
                 const EdgeSet* killed, PieceWorkspace& ws) {
  const separator::HierarchyPiece& piece =
      h.pieces[static_cast<std::size_t>(p)];
  const std::int32_t scount = qi.sep_count(p);
  if (scount == 0) return;
  ensure_workspace(g.num_nodes(), ws);
  const int sz = build_local_csr(g, piece.nodes, killed, ws);
  const std::int64_t sbase = qi.sep_off[static_cast<std::size_t>(p)];
  const std::int32_t level = qi.piece_level[static_cast<std::size_t>(p)];
  for (std::int32_t si = 0; si < scount; ++si) {
    const NodeId s = qi.sep_nodes[static_cast<std::size_t>(sbase + si)];
    bfs_local(sz, ws.local_of[static_cast<std::size_t>(s)], ws);
    for (int i = 0; i < sz; ++i) {
      const NodeId m = piece.nodes[static_cast<std::size_t>(i)];
      const std::int64_t block =
          qi.block_off[static_cast<std::size_t>(
              qi.path_off[static_cast<std::size_t>(m)] + level)];
      qi.dist[static_cast<std::size_t>(block + si)] =
          ws.ldist[static_cast<std::size_t>(i)];
    }
  }
  reset_local(piece.nodes, ws);
}

void solve_leaf(const planar::EmbeddedGraph& g,
                const separator::SeparatorHierarchy& h, int p, QueryIndex& qi,
                const EdgeSet* killed, PieceWorkspace& ws) {
  const separator::HierarchyPiece& piece =
      h.pieces[static_cast<std::size_t>(p)];
  if (!piece.is_leaf()) return;
  ensure_workspace(g.num_nodes(), ws);
  const int sz = build_local_csr(g, piece.nodes, killed, ws);
  const std::int64_t base = qi.leaf_tab_off[static_cast<std::size_t>(p)];
  for (int i = 0; i < sz; ++i) {
    bfs_local(sz, i, ws);
    std::copy(ws.ldist.begin(), ws.ldist.end(),
              qi.leaf_tab.begin() +
                  static_cast<std::ptrdiff_t>(base) +
                  static_cast<std::ptrdiff_t>(i) * sz);
  }
  reset_local(piece.nodes, ws);
}

QueryIndex build_query_index(const planar::EmbeddedGraph& g,
                             const separator::SeparatorHierarchy& h,
                             int leaf_size) {
  PLANSEP_SPAN("query/build_index");
  const NodeId n = g.num_nodes();
  const std::size_t pieces = h.pieces.size();
  PLANSEP_CHECK(h.num_nodes() == n);
  QueryIndex qi;
  qi.leaf_size = leaf_size;
  qi.num_nodes = n;

  // Piece tables.
  qi.piece_level.resize(pieces);
  qi.sep_off.assign(pieces + 1, 0);
  qi.leaf_tab_off.assign(pieces + 1, 0);
  for (std::size_t p = 0; p < pieces; ++p) {
    const separator::HierarchyPiece& piece = h.pieces[p];
    qi.piece_level[p] = piece.level;
    qi.sep_off[p + 1] =
        qi.sep_off[p] + static_cast<std::int64_t>(piece.separator.size());
    const std::int64_t tab =
        piece.is_leaf()
            ? static_cast<std::int64_t>(piece.nodes.size()) *
                  static_cast<std::int64_t>(piece.nodes.size())
            : 0;
    qi.leaf_tab_off[p + 1] = qi.leaf_tab_off[p] + tab;
  }
  qi.sep_nodes.reserve(static_cast<std::size_t>(qi.sep_off[pieces]));
  for (std::size_t p = 0; p < pieces; ++p) {
    for (const NodeId s : h.pieces[p].separator) qi.sep_nodes.push_back(s);
  }

  // Terminal piece per node: the leaf, or the piece whose separator
  // absorbed the node.
  std::vector<std::int32_t> term(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> leaf_pos(static_cast<std::size_t>(n), -1);
  for (std::size_t p = 0; p < pieces; ++p) {
    const separator::HierarchyPiece& piece = h.pieces[p];
    for (const NodeId s : piece.separator) {
      term[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(p);
    }
    if (piece.is_leaf()) {
      for (std::size_t i = 0; i < piece.nodes.size(); ++i) {
        const NodeId v = piece.nodes[i];
        term[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(p);
        leaf_pos[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
      }
    }
  }
  qi.leaf_pos = std::move(leaf_pos);

  // Ancestor chains (root first; position of a piece == its level, since
  // child levels are parent+1 and roots sit at level 0).
  qi.path_off.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::int32_t t = term[static_cast<std::size_t>(v)];
    PLANSEP_CHECK_MSG(t >= 0, "node without a terminal piece");
    qi.path_off[static_cast<std::size_t>(v) + 1] =
        qi.path_off[static_cast<std::size_t>(v)] +
        qi.piece_level[static_cast<std::size_t>(t)] + 1;
  }
  const std::int64_t chain_total =
      qi.path_off[static_cast<std::size_t>(n)];
  qi.path_piece.resize(static_cast<std::size_t>(chain_total));
  qi.block_off.resize(static_cast<std::size_t>(chain_total));
  std::int64_t dist_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::int32_t p = term[static_cast<std::size_t>(v)];
    const std::int64_t base = qi.path_off[static_cast<std::size_t>(v)];
    const std::int32_t len = qi.path_len(v);
    for (std::int32_t i = len - 1; i >= 0; --i) {
      qi.path_piece[static_cast<std::size_t>(base + i)] = p;
      p = h.pieces[static_cast<std::size_t>(p)].parent;
    }
    PLANSEP_CHECK_MSG(p == -1, "chain did not end at a root piece");
    for (std::int32_t i = 0; i < len; ++i) {
      qi.block_off[static_cast<std::size_t>(base + i)] = dist_total;
      dist_total +=
          qi.sep_count(qi.path_piece[static_cast<std::size_t>(base + i)]);
    }
  }
  qi.dist.assign(static_cast<std::size_t>(dist_total), kUnreachable);
  qi.leaf_tab.assign(static_cast<std::size_t>(qi.leaf_tab_off[pieces]),
                     kUnreachable);

  PieceWorkspace ws;
  for (std::size_t p = 0; p < pieces; ++p) {
    solve_piece(g, h, static_cast<int>(p), qi, nullptr, ws);
    solve_leaf(g, h, static_cast<int>(p), qi, nullptr, ws);
  }
  if (obs::MetricsRegistry* reg = obs::global_registry()) {
    reg->add("query/index_builds");
    reg->add("query/index_dist_entries", dist_total);
  }
  return qi;
}

}  // namespace plansep::query
