#include "tree/rooted_tree.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace plansep::tree {

RootedSpanningTree::RootedSpanningTree(const EmbeddedGraph& g, NodeId root,
                                       std::vector<DartId> parent_dart,
                                       int root_stub_pos)
    : g_(&g),
      root_(root),
      root_stub_pos_(root_stub_pos),
      parent_dart_(std::move(parent_dart)) {
  PLANSEP_CHECK(root >= 0 && root < g.num_nodes());
  PLANSEP_CHECK(static_cast<NodeId>(parent_dart_.size()) == g.num_nodes());
  PLANSEP_CHECK(root_stub_pos >= 0 && root_stub_pos <= g.degree(root));
  PLANSEP_CHECK_MSG(parent_dart_[root_] == kNoDart,
                    "root must not have a parent dart");
  build();
}

RootedSpanningTree RootedSpanningTree::bfs(const EmbeddedGraph& g, NodeId root,
                                           int root_stub_pos) {
  std::vector<char> all(static_cast<std::size_t>(g.num_nodes()), 1);
  return bfs_subset(g, root, all, root_stub_pos);
}

RootedSpanningTree RootedSpanningTree::bfs_subset(const EmbeddedGraph& g,
                                                  NodeId root,
                                                  const std::vector<char>& in_set,
                                                  int root_stub_pos) {
  PLANSEP_CHECK(root >= 0 && root < g.num_nodes());
  PLANSEP_CHECK(in_set[static_cast<std::size_t>(root)]);
  std::vector<DartId> parent(static_cast<std::size_t>(g.num_nodes()), kNoDart);
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::deque<NodeId> queue{root};
  seen[static_cast<std::size_t>(root)] = 1;
  int reached = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (DartId d : g.rotation(v)) {
      const NodeId w = g.head(d);
      if (!in_set[static_cast<std::size_t>(w)] ||
          seen[static_cast<std::size_t>(w)]) {
        continue;
      }
      seen[static_cast<std::size_t>(w)] = 1;
      parent[static_cast<std::size_t>(w)] = EmbeddedGraph::rev(d);
      queue.push_back(w);
      ++reached;
    }
  }
  int want = 0;
  for (char c : in_set) want += c;
  PLANSEP_CHECK_MSG(reached == want, "member set is not connected");
  return RootedSpanningTree(g, root, std::move(parent), root_stub_pos);
}

void RootedSpanningTree::build() {
  const EmbeddedGraph& g = *g_;
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  depth_.assign(n, -1);
  subtree_size_.assign(n, 0);
  tree_edge_.assign(static_cast<std::size_t>(g.num_edges()), 0);
  pi_left_.assign(n, 0);
  pi_right_.assign(n, 0);

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const DartId pd = parent_dart_[static_cast<std::size_t>(v)];
    if (pd == kNoDart) continue;
    PLANSEP_CHECK_MSG(g.tail(pd) == v, "parent dart must leave its node");
    tree_edge_[static_cast<std::size_t>(EmbeddedGraph::edge_of(pd))] = 1;
  }

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (contains(v)) nodes_.push_back(v);
  }

  // Children of each member in CSR layout, ordered clockwise starting
  // after the parent dart (flat storage avoids a per-node allocation in
  // every per-part tree).
  child_off_.assign(n + 1, 0);
  for (NodeId v : nodes_) {
    if (v == root_) continue;
    const NodeId p = g.head(parent_dart_[static_cast<std::size_t>(v)]);
    PLANSEP_CHECK_MSG(contains(p), "parent of a member must be a member");
    ++child_off_[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 1; i < child_off_.size(); ++i) {
    child_off_[i] += child_off_[i - 1];
  }
  child_data_.assign(nodes_.empty() ? 0 : nodes_.size() - 1, kNoNode);
  {
    std::vector<int> cursor(child_off_.begin(), child_off_.end() - 1);
    for (NodeId v : nodes_) {
      if (v == root_) continue;
      const NodeId p = g.head(parent_dart_[static_cast<std::size_t>(v)]);
      child_data_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(p)]++)] = v;
    }
  }
  for (NodeId v : nodes_) {
    auto begin = child_data_.begin() + child_off_[static_cast<std::size_t>(v)];
    auto end = child_data_.begin() + child_off_[static_cast<std::size_t>(v) + 1];
    std::sort(begin, end, [&](NodeId a, NodeId b) {
      return t_offset(EmbeddedGraph::rev(
                 parent_dart_[static_cast<std::size_t>(a)])) <
             t_offset(EmbeddedGraph::rev(
                 parent_dart_[static_cast<std::size_t>(b)]));
    });
  }

  // Depths and subtree sizes by iterative traversal from the root.
  depth_[static_cast<std::size_t>(root_)] = 0;
  std::vector<NodeId> order;  // preorder
  order.reserve(nodes_.size());
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (NodeId c : children(v)) {
      depth_[static_cast<std::size_t>(c)] = depth_[static_cast<std::size_t>(v)] + 1;
      stack.push_back(c);
    }
  }
  PLANSEP_CHECK_MSG(order.size() == nodes_.size(),
                    "parent darts do not form a tree over the members");
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    int size = 1;
    for (NodeId c : children(v)) {
      size += subtree_size_[static_cast<std::size_t>(c)];
    }
    subtree_size_[static_cast<std::size_t>(v)] = size;
  }

  // DFS orders. RIGHT-DFS-ORDER visits children in increasing t-offset
  // (clockwise); LEFT-DFS-ORDER in decreasing t-offset (counterclockwise).
  auto assign_order = [&](std::vector<int>& pi, bool left) {
    int counter = 0;
    std::vector<NodeId> st{root_};
    while (!st.empty()) {
      const NodeId v = st.back();
      st.pop_back();
      pi[static_cast<std::size_t>(v)] = ++counter;
      const auto ch = children(v);
      // Stack is LIFO: push in reverse of the desired visit order.
      if (left) {
        for (auto it = ch.begin(); it != ch.end(); ++it) st.push_back(*it);
      } else {
        for (auto it = ch.rbegin(); it != ch.rend(); ++it) st.push_back(*it);
      }
    }
  };
  assign_order(pi_left_, /*left=*/true);
  assign_order(pi_right_, /*left=*/false);
}

NodeId RootedSpanningTree::parent(NodeId v) const {
  const DartId pd = parent_dart_[static_cast<std::size_t>(v)];
  return pd == kNoDart ? kNoNode : g_->head(pd);
}

int RootedSpanningTree::t_offset(DartId d) const {
  const NodeId v = g_->tail(d);
  const int deg = g_->degree(v);
  if (v == root_) {
    // Conceptual rotation: stub at gap root_stub_pos_, then the real darts
    // clockwise. Offsets start at 1 for the dart at index root_stub_pos_.
    return ((g_->position(d) - root_stub_pos_ + deg) % deg) + 1;
  }
  const DartId pd = parent_dart_[static_cast<std::size_t>(v)];
  PLANSEP_CHECK_MSG(pd != kNoDart, "t_offset of a non-member node");
  return (g_->position(d) - g_->position(pd) + deg) % deg;
}

bool RootedSpanningTree::is_ancestor(NodeId a, NodeId d) const {
  const int pa = pi_left_[static_cast<std::size_t>(a)];
  const int pd = pi_left_[static_cast<std::size_t>(d)];
  return pd >= pa && pd < pa + subtree_size_[static_cast<std::size_t>(a)];
}

NodeId RootedSpanningTree::lca(NodeId u, NodeId v) const {
  while (u != v) {
    if (depth_[static_cast<std::size_t>(u)] >= depth_[static_cast<std::size_t>(v)]) {
      u = parent(u);
    } else {
      v = parent(v);
    }
  }
  return u;
}

std::vector<NodeId> RootedSpanningTree::path(NodeId u, NodeId v) const {
  const NodeId w = lca(u, v);
  std::vector<NodeId> up;
  for (NodeId x = u; x != w; x = parent(x)) up.push_back(x);
  up.push_back(w);
  std::vector<NodeId> down;
  for (NodeId x = v; x != w; x = parent(x)) down.push_back(x);
  up.insert(up.end(), down.rbegin(), down.rend());
  return up;
}

NodeWeights::NodeWeights(const RootedSpanningTree& t,
                         const std::vector<long long>& weight)
    : t_(&t), total_(t.size()) {
  if (weight.empty()) return;
  const std::size_t nodes = static_cast<std::size_t>(t.graph().num_nodes());
  PLANSEP_CHECK(weight.size() == nodes);
  weight_ = &weight;
  const std::size_t n = static_cast<std::size_t>(t.size());
  subtree_.assign(nodes, 0);
  root_path_.assign(nodes, 0);
  prefix_l_.assign(n + 1, 0);
  prefix_r_.assign(n + 1, 0);
  // The members in π_ℓ order, a preorder: parents precede children.
  std::vector<NodeId> preorder(n);
  for (NodeId v : t.nodes()) {
    preorder[static_cast<std::size_t>(t.pi_left(v) - 1)] = v;
    prefix_l_[static_cast<std::size_t>(t.pi_left(v))] = of(v);
    prefix_r_[static_cast<std::size_t>(t.pi_right(v))] = of(v);
  }
  for (std::size_t k = 1; k <= n; ++k) {
    prefix_l_[k] += prefix_l_[k - 1];
    prefix_r_[k] += prefix_r_[k - 1];
  }
  total_ = prefix_l_[n];
  for (NodeId v : preorder) {
    const NodeId p = t.parent(v);
    root_path_[static_cast<std::size_t>(v)] =
        (p == kNoNode ? 0 : root_path_[static_cast<std::size_t>(p)]) + of(v);
  }
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    subtree_[static_cast<std::size_t>(*it)] += of(*it);
    const NodeId p = t.parent(*it);
    if (p != kNoNode) {
      subtree_[static_cast<std::size_t>(p)] +=
          subtree_[static_cast<std::size_t>(*it)];
    }
  }
}

long long NodeWeights::interval(int lo, int hi, bool left) const {
  if (!weight_) return hi - lo + 1;
  const std::vector<long long>& prefix = left ? prefix_l_ : prefix_r_;
  return prefix[static_cast<std::size_t>(hi)] -
         prefix[static_cast<std::size_t>(lo - 1)];
}

long long NodeWeights::path(NodeId a, NodeId b) const {
  const NodeId w = t_->lca(a, b);
  return root_path(a) + root_path(b) - 2 * root_path(w) + of(w);
}

NodeId NodeWeights::centroid() const {
  // Walk from the root towards a child whose subtree weighs more than half
  // the total. At the stop node every hanging component (child subtrees
  // and the part above) weighs at most half, so the tree path
  // root→centroid is a separator whose removal leaves components of at
  // most half the weight (used by Phase 2 of the separator algorithm; the
  // paper's claim that some subtree size lies in [n/3, 2n/3] fails on
  // stars, but the root→centroid path is always a valid cycle separator).
  NodeId v = t_->root();
  for (;;) {
    NodeId heavy = kNoNode;
    for (NodeId c : t_->children(v)) {
      if (2 * subtree(c) > total_) {
        heavy = c;
        break;
      }
    }
    if (heavy == kNoNode) return v;
    v = heavy;
  }
}

}  // namespace plansep::tree
