#include "congest/bfs_tree.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace plansep::congest {

namespace {

/// BFS wave: the root sends "join" to all neighbors; the first message a
/// node receives sets its parent and depth, after which it forwards the
/// wave. Tags: 0 = join (a = sender depth).
class BfsProgram : public NodeProgram {
 public:
  explicit BfsProgram(NodeId root, BfsResult* out) : root_(root), out_(out) {}

  std::vector<NodeId> initial_nodes(const EmbeddedGraph& g) override {
    out_->parent_dart.assign(static_cast<std::size_t>(g.num_nodes()),
                             planar::kNoDart);
    out_->depth.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    out_->depth[static_cast<std::size_t>(root_)] = 0;
    g_ = &g;
    return {root_};
  }

  void round(NodeId v, InboxView inbox, Ctx& ctx) override {
    auto& depth = out_->depth[static_cast<std::size_t>(v)];
    NodeId parent = planar::kNoNode;
    if (v != root_) {
      if (depth >= 0) return;  // already joined; ignore duplicate waves
      // Adopt the first sender (ties broken by arrival order, which is
      // rotation-deterministic).
      PLANSEP_CHECK(!inbox.empty());
      const Incoming& first = inbox.front();
      depth = static_cast<int>(first.msg.a) + 1;
      out_->parent_dart[static_cast<std::size_t>(v)] =
          g_->find_dart(v, first.from);
      // height is folded from the depth array after the run: round() may
      // only mutate per-node state (NodeProgram's concurrency contract).
      parent = first.from;
    }
    for (DartId d : g_->rotation(v)) {
      const NodeId w = g_->head(d);
      if (w == parent) continue;
      Message m;
      m.tag = 0;
      m.a = depth;
      ctx.send(w, m);
    }
  }

 private:
  NodeId root_;
  BfsResult* out_;
  const EmbeddedGraph* g_ = nullptr;
};

}  // namespace

BfsResult distributed_bfs(const EmbeddedGraph& g, NodeId root) {
  PLANSEP_SPAN("congest/bfs");
  BfsResult out;
  out.root = root;
  BfsProgram prog(root, &out);
  Network net(g);
  out.rounds = net.run(prog);
  out.messages = net.messages_sent();
  for (const int d : out.depth) out.height = std::max(out.height, d);
  return out;
}

void check_spanning_tree(const EmbeddedGraph& g, const BfsResult& bfs) {
  const NodeId n = g.num_nodes();
  PLANSEP_CHECK_MSG(static_cast<NodeId>(bfs.parent_dart.size()) == n &&
                        static_cast<NodeId>(bfs.depth.size()) == n,
                    "spanning tree size must match the graph");
  PLANSEP_CHECK_MSG(bfs.root >= 0 && bfs.root < n,
                    "spanning tree root out of range");
  PLANSEP_CHECK_MSG(bfs.parent_dart[static_cast<std::size_t>(bfs.root)] ==
                            planar::kNoDart &&
                        bfs.depth[static_cast<std::size_t>(bfs.root)] == 0,
                    "spanning tree root must have no parent and depth 0");
  int max_depth = 0;
  for (NodeId v = 0; v < n; ++v) {
    const int dv = bfs.depth[static_cast<std::size_t>(v)];
    max_depth = std::max(max_depth, dv);
    if (v == bfs.root) continue;
    const DartId pd = bfs.parent_dart[static_cast<std::size_t>(v)];
    PLANSEP_CHECK_MSG(pd >= 0 && pd < g.num_darts(),
                      "spanning tree dart out of range");
    PLANSEP_CHECK_MSG(g.tail(pd) == v,
                      "spanning tree parent dart must leave its node");
    PLANSEP_CHECK_MSG(dv == bfs.depth[static_cast<std::size_t>(g.head(pd))] + 1,
                      "spanning tree depth must be its parent's plus one");
  }
  PLANSEP_CHECK_MSG(bfs.height == max_depth,
                    "spanning tree height must be its deepest level");
}

DiameterEstimate estimate_diameter(const EmbeddedGraph& g, NodeId root) {
  const BfsResult first = distributed_bfs(g, root);
  NodeId far = root;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (first.depth[static_cast<std::size_t>(v)] >
        first.depth[static_cast<std::size_t>(far)]) {
      far = v;
    }
  }
  const BfsResult second = distributed_bfs(g, far);
  DiameterEstimate est;
  est.diameter_lb = second.height;
  est.rounds = first.rounds + second.rounds;
  return est;
}

}  // namespace plansep::congest
