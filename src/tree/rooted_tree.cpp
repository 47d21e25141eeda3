#include "tree/rooted_tree.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace plansep::tree {

namespace {

/// Groups the items 0..items−1 whose key(i) is a bucket in
/// 0..buckets−1 by bucket, in CSR layout: bucket b's items, ascending, are
/// data[off[b] .. off[b + 1]). Items with key −1 are left out.
template <typename Key>
void group_by(int items, std::size_t buckets, Key key, std::vector<int>& off,
              std::vector<int>& data) {
  off.assign(buckets + 1, 0);
  for (int i = 0; i < items; ++i) {
    const int b = key(i);
    if (b >= 0) ++off[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t b = 1; b <= buckets; ++b) off[b] += off[b - 1];
  data.resize(static_cast<std::size_t>(off[buckets]));
  std::vector<int> cursor(off.begin(), off.end() - 1);
  for (int i = 0; i < items; ++i) {
    const int b = key(i);
    if (b >= 0) {
      data[static_cast<std::size_t>(cursor[static_cast<std::size_t>(b)]++)] =
          i;
    }
  }
}

/// Builds the forest whose tree i spans the nodes with tree_of[v] == i,
/// rooted at root[i] with stub gap root_stub_pos[i], along parent_dart
/// (read for members only). One pass per array: O(n + m) for all trees.
ForestArrays build_forest(const EmbeddedGraph& g, std::vector<int> tree_of,
                          std::vector<NodeId> root,
                          std::vector<int> root_stub_pos,
                          const std::vector<DartId>& parent_dart) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t trees = root.size();
  PLANSEP_CHECK(tree_of.size() == n && parent_dart.size() == n);
  ForestArrays f;
  f.g = &g;
  for (std::size_t i = 0; i < trees; ++i) {
    const NodeId r = root[i];
    if (r == kNoNode) continue;
    PLANSEP_CHECK(r >= 0 && r < g.num_nodes());
    PLANSEP_CHECK_MSG(tree_of[static_cast<std::size_t>(r)] ==
                          static_cast<int>(i),
                      "root must belong to its tree");
    PLANSEP_CHECK(root_stub_pos[i] >= 0 && root_stub_pos[i] <= g.degree(r));
  }

  // Parent darts and tree edges, then the members of each tree.
  f.parent_dart.assign(n, kNoDart);
  f.tree_edge.assign(static_cast<std::size_t>(g.num_edges()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    int& i = tree_of[static_cast<std::size_t>(v)];
    PLANSEP_CHECK(i < static_cast<int>(trees));
    if (i >= 0 && root[static_cast<std::size_t>(i)] == kNoNode) i = -1;
    if (i < 0 || v == root[static_cast<std::size_t>(i)]) continue;
    const DartId pd = parent_dart[static_cast<std::size_t>(v)];
    PLANSEP_CHECK_MSG(pd != kNoDart,
                      "parent darts do not form a tree over the members");
    PLANSEP_CHECK_MSG(g.tail(pd) == v, "parent dart must leave its node");
    PLANSEP_CHECK_MSG(tree_of[static_cast<std::size_t>(g.head(pd))] == i,
                      "parent of a member must be a member");
    f.parent_dart[static_cast<std::size_t>(v)] = pd;
    f.tree_edge[static_cast<std::size_t>(EmbeddedGraph::edge_of(pd))] = 1;
  }
  group_by(
      g.num_nodes(), trees,
      [&](NodeId v) { return tree_of[static_cast<std::size_t>(v)]; },
      f.member_off, f.members);

  // Clockwise offset of dart d from the parent dart of its tail (a member).
  const auto offset = [&](DartId d) {
    const NodeId v = g.tail(d);
    const int deg = g.degree(v);
    const int i = tree_of[static_cast<std::size_t>(v)];
    if (v == root[static_cast<std::size_t>(i)]) {
      return ((g.position(d) - root_stub_pos[static_cast<std::size_t>(i)] +
               deg) % deg) + 1;
    }
    const DartId pd = f.parent_dart[static_cast<std::size_t>(v)];
    return (g.position(d) - g.position(pd) + deg) % deg;
  };

  // Children of each member in CSR layout, ordered clockwise starting
  // after the parent dart.
  group_by(
      g.num_nodes(), n,
      [&](NodeId v) {
        const DartId pd = f.parent_dart[static_cast<std::size_t>(v)];
        return pd == kNoDart ? -1 : g.head(pd);
      },
      f.child_off, f.child_data);
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(f.child_data.begin() + f.child_off[v],
              f.child_data.begin() + f.child_off[v + 1],
              [&](NodeId a, NodeId b) {
                return offset(EmbeddedGraph::rev(
                           f.parent_dart[static_cast<std::size_t>(a)])) <
                       offset(EmbeddedGraph::rev(
                           f.parent_dart[static_cast<std::size_t>(b)]));
              });
  }
  const auto children = [&](NodeId v) {
    return std::span<const NodeId>(
        f.child_data.data() + f.child_off[static_cast<std::size_t>(v)],
        f.child_data.data() + f.child_off[static_cast<std::size_t>(v) + 1]);
  };

  // Per tree: depths and LEFT-DFS-ORDER in one preorder walk, subtree
  // sizes in reverse, then RIGHT-DFS-ORDER. π_ℓ visits children in
  // decreasing t-offset (counterclockwise), π_r in increasing (clockwise);
  // the stack is LIFO, so children are pushed in reverse of the visit
  // order.
  f.depth.assign(n, -1);
  f.subtree_size.assign(n, 0);
  f.pi_left.assign(n, 0);
  f.pi_right.assign(n, 0);
  std::vector<NodeId> order;
  std::vector<NodeId> stack;
  for (std::size_t i = 0; i < trees; ++i) {
    const NodeId r = root[i];
    if (r == kNoNode) continue;
    order.clear();
    f.depth[static_cast<std::size_t>(r)] = 0;
    stack.assign(1, r);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      order.push_back(v);
      f.pi_left[static_cast<std::size_t>(v)] = static_cast<int>(order.size());
      for (NodeId c : children(v)) {
        f.depth[static_cast<std::size_t>(c)] =
            f.depth[static_cast<std::size_t>(v)] + 1;
        stack.push_back(c);
      }
    }
    PLANSEP_CHECK_MSG(static_cast<int>(order.size()) ==
                          f.member_off[i + 1] - f.member_off[i],
                      "parent darts do not form a tree over the members");
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      int size = 1;
      for (NodeId c : children(*it)) {
        size += f.subtree_size[static_cast<std::size_t>(c)];
      }
      f.subtree_size[static_cast<std::size_t>(*it)] = size;
    }
    int counter = 0;
    stack.assign(1, r);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      f.pi_right[static_cast<std::size_t>(v)] = ++counter;
      const auto ch = children(v);
      for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.push_back(*it);
    }
  }

  // Real fundamental edges per tree, in edge-id order: the non-tree edges
  // whose ends share a tree.
  group_by(
      g.num_edges(), trees,
      [&](EdgeId e) {
        if (f.tree_edge[static_cast<std::size_t>(e)]) return -1;
        const int i = tree_of[static_cast<std::size_t>(g.edge_u(e))];
        return i == tree_of[static_cast<std::size_t>(g.edge_v(e))] ? i : -1;
      },
      f.fund_off, f.fund);

  f.tree_of = std::move(tree_of);
  f.root = std::move(root);
  f.root_stub_pos = std::move(root_stub_pos);
  return f;
}

}  // namespace

RootedSpanningTree::RootedSpanningTree(const EmbeddedGraph& g, NodeId root,
                                       std::vector<DartId> parent_dart,
                                       int root_stub_pos) {
  PLANSEP_CHECK(root >= 0 && root < g.num_nodes());
  PLANSEP_CHECK(static_cast<NodeId>(parent_dart.size()) == g.num_nodes());
  PLANSEP_CHECK_MSG(parent_dart[static_cast<std::size_t>(root)] == kNoDart,
                    "root must not have a parent dart");
  std::vector<int> tree_of(parent_dart.size(), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == root || parent_dart[static_cast<std::size_t>(v)] != kNoDart) {
      tree_of[static_cast<std::size_t>(v)] = 0;
    }
  }
  f_ = std::make_shared<const ForestArrays>(build_forest(
      g, std::move(tree_of), {root}, {root_stub_pos}, parent_dart));
}

std::vector<RootedSpanningTree> RootedSpanningTree::forest(
    const EmbeddedGraph& g, const std::vector<int>& part,
    const std::vector<NodeId>& roots,
    const std::vector<DartId>& parent_dart) {
  const auto f = std::make_shared<const ForestArrays>(build_forest(
      g, part, roots, std::vector<int>(roots.size(), 0), parent_dart));
  std::vector<RootedSpanningTree> out;
  out.reserve(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    out.push_back(RootedSpanningTree(f, static_cast<int>(i)));
  }
  return out;
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

NodeId RootedSpanningTree::parent(NodeId v) const {
  const DartId pd = parent_dart(v);
  return pd == kNoDart ? kNoNode : f_->g->head(pd);
}

int RootedSpanningTree::t_offset(DartId d) const {
  const EmbeddedGraph& g = *f_->g;
  const NodeId v = g.tail(d);
  PLANSEP_CHECK_MSG(contains(v), "t_offset of a non-member node");
  const int deg = g.degree(v);
  if (v == root()) {
    // Conceptual rotation: stub at gap root_stub_pos, then the real darts
    // clockwise. Offsets start at 1 for the dart at index root_stub_pos.
    return ((g.position(d) - root_stub_pos() + deg) % deg) + 1;
  }
  const DartId pd = f_->parent_dart[static_cast<std::size_t>(v)];
  return (g.position(d) - g.position(pd) + deg) % deg;
}

bool RootedSpanningTree::is_ancestor(NodeId a, NodeId d) const {
  if (!contains(a) || !contains(d)) return false;
  const int pa = f_->pi_left[static_cast<std::size_t>(a)];
  const int pd = f_->pi_left[static_cast<std::size_t>(d)];
  return pd >= pa && pd < pa + f_->subtree_size[static_cast<std::size_t>(a)];
}

NodeId RootedSpanningTree::lca(NodeId u, NodeId v) const {
  while (u != v) {
    if (depth(u) >= depth(v)) {
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
  PLANSEP_CHECK(weight.size() ==
                static_cast<std::size_t>(t.graph().num_nodes()));
  weight_ = &weight;
  const std::size_t n = static_cast<std::size_t>(t.size());
  subtree_.assign(n + 1, 0);
  root_path_.assign(n + 1, 0);
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
    root_path_[slot(v)] = (p == kNoNode ? 0 : root_path_[slot(p)]) + of(v);
  }
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    subtree_[slot(*it)] += of(*it);
    const NodeId p = t.parent(*it);
    if (p != kNoNode) subtree_[slot(p)] += subtree_[slot(*it)];
  }
}

long long NodeWeights::interval(int lo, int hi, bool left) const {
  if (!weight_) return hi - lo + 1;
  const std::vector<long long>& prefix = left ? prefix_l_ : prefix_r_;
  return prefix[static_cast<std::size_t>(hi)] -
         prefix[static_cast<std::size_t>(lo - 1)];
}

long long NodeWeights::path(NodeId a, NodeId b, NodeId w) const {
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
