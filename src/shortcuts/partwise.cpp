#include "shortcuts/partwise.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace plansep::shortcuts {

namespace {

constexpr std::int64_t kIdentityMin = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kIdentityMax = std::numeric_limits<std::int64_t>::min();

std::int64_t combine(AggOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case AggOp::kMin: return std::min(a, b);
    case AggOp::kMax: return std::max(a, b);
    case AggOp::kSum: return a + b;
  }
  return 0;
}

std::int64_t identity(AggOp op) {
  switch (op) {
    case AggOp::kMin: return kIdentityMin;
    case AggOp::kMax: return kIdentityMax;
    case AggOp::kSum: return 0;
  }
  return 0;
}

// Budget on the total number of (node, part) stream entries the global
// simulation materializes; beyond it the intra-part strategy dominates
// anyway and the simulation is skipped.
constexpr long long kGlobalSimBudget = 20'000'000;

}  // namespace

PartwiseEngine::PartwiseEngine(const EmbeddedGraph& g, NodeId root) : g_(&g) {
  PLANSEP_SPAN("pa/setup_bfs");
  bfs_ = congest::distributed_bfs(g, root);
  init_derived();
}

PartwiseEngine::PartwiseEngine(const EmbeddedGraph& g, congest::BfsResult bfs)
    : g_(&g), bfs_(std::move(bfs)) {
  // init_derived() checks the adopted tree against g before any use.
  init_derived();
}

void PartwiseEngine::init_derived() {
  const EmbeddedGraph& g = *g_;
  const NodeId n = g.num_nodes();
  for (int d : bfs_.depth) {
    PLANSEP_CHECK_MSG(d >= 0, "graph must be connected");
  }
  // The schedule simulation and the lower bound in aggregate() rely on a
  // BFS-shaped tree; an adopted one (a decoded spanning-tree artifact) is
  // untrusted until checked.
  congest::check_spanning_tree(g, bfs_);
  setup_cost_.measured = bfs_.rounds;
  setup_cost_.charged = std::max(1, bfs_.height);
  bfs_children_.assign(static_cast<std::size_t>(n), {});
  bfs_order_.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) bfs_order_.push_back(v);
  std::sort(bfs_order_.begin(), bfs_order_.end(), [&](NodeId a, NodeId b) {
    return bfs_.depth[static_cast<std::size_t>(a)] <
           bfs_.depth[static_cast<std::size_t>(b)];
  });
  for (NodeId v = 0; v < n; ++v) {
    if (v == bfs_.root) continue;
    const planar::DartId pd = bfs_.parent_dart[static_cast<std::size_t>(v)];
    bfs_children_[static_cast<std::size_t>(g.head(pd))].push_back(v);
  }
}

RoundCost PartwiseEngine::blackbox_charge() const {
  RoundCost c;
  c.measured = 2 * std::max(1, bfs_.height);
  c.charged = std::max(1, bfs_.height);
  c.pa_calls = 1;
  obs::advance_rounds(c.measured);
  return c;
}

PartwiseEngine::IntraScan PartwiseEngine::intra_part_rounds(
    const std::vector<int>& part) const {
  // Per-part BFS height over the induced subgraph; parts are disjoint so
  // they proceed fully in parallel. Aggregation = convergecast + broadcast.
  // The same pass records the deepest global-BFS depth of a participating
  // node and the number of distinct parts, for aggregate()'s lower bound.
  const EmbeddedGraph& g = *g_;
  const NodeId n = g.num_nodes();
  std::vector<int> level(static_cast<std::size_t>(n), -1);  // -1 = unseen
  std::vector<char> part_seen;
  // Every node enters the queue at most once over all parts, so one flat
  // vector serves every BFS: each starts where the previous one ended.
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  IntraScan scan;
  int max_height = 0;
  for (NodeId s = 0; s < n; ++s) {
    const int p = part[static_cast<std::size_t>(s)];
    if (p < 0 || level[static_cast<std::size_t>(s)] >= 0) continue;
    if (static_cast<std::size_t>(p) >= part_seen.size()) {
      part_seen.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    if (!part_seen[static_cast<std::size_t>(p)]) {
      part_seen[static_cast<std::size_t>(p)] = 1;
      ++scan.parts;
    }
    level[static_cast<std::size_t>(s)] = 0;
    std::size_t head = queue.size();
    queue.push_back(s);
    while (head < queue.size()) {
      const NodeId v = queue[head++];
      const int lv = level[static_cast<std::size_t>(v)];
      max_height = std::max(max_height, lv);
      scan.deepest = std::max(scan.deepest, bfs_.depth[static_cast<std::size_t>(v)]);
      for (planar::DartId d : g.rotation(v)) {
        const NodeId w = g.head(d);
        if (part[static_cast<std::size_t>(w)] != p ||
            level[static_cast<std::size_t>(w)] >= 0) {
          continue;
        }
        level[static_cast<std::size_t>(w)] = lv + 1;
        queue.push_back(w);
      }
    }
  }
  scan.rounds = 2LL * max_height + 2;
  return scan;
}

long long PartwiseEngine::global_tree_rounds(const std::vector<int>& part) const {
  // Analytic schedule of the pipelined combining convergecast + downcast
  // over the global BFS tree (see header). Streams are per-part sorted;
  // a node forwards one part per round once every child's stream has
  // advanced past it.
  const EmbeddedGraph& g = *g_;
  const NodeId n = g.num_nodes();

  struct Entry {
    int part;
    long long emit = 0;  // up-phase emission round
  };
  // parts_of[v]: sorted distinct parts in v's BFS subtree, with emit times.
  std::vector<std::vector<Entry>> parts_of(static_cast<std::size_t>(n));
  std::vector<long long> done_time(static_cast<std::size_t>(n), 0);
  long long budget = kGlobalSimBudget;

  for (auto it = bfs_order_.rbegin(); it != bfs_order_.rend(); ++it) {
    const NodeId v = *it;
    const auto& children = bfs_children_[static_cast<std::size_t>(v)];
    // k-way merge of children's part lists plus v's own part.
    std::vector<std::size_t> ptr(children.size(), 0);
    auto& mine = parts_of[static_cast<std::size_t>(v)];
    const int own = part[static_cast<std::size_t>(v)];
    bool own_used = false;
    long long prev_emit = 0;
    for (;;) {
      int next = std::numeric_limits<int>::max();
      for (std::size_t i = 0; i < children.size(); ++i) {
        const auto& cl = parts_of[static_cast<std::size_t>(children[i])];
        if (ptr[i] < cl.size()) next = std::min(next, cl[ptr[i]].part);
      }
      if (!own_used && own >= 0) next = std::min(next, own);
      if (next == std::numeric_limits<int>::max()) break;
      // Readiness: every child must have advanced past `next`.
      long long ready = 0;
      for (std::size_t i = 0; i < children.size(); ++i) {
        const auto& cl = parts_of[static_cast<std::size_t>(children[i])];
        // Child certifies "no more parts <= next" when it emits its first
        // part > next, or when its stream is done.
        std::size_t j = ptr[i];
        long long cert;
        if (j < cl.size() && cl[j].part == next) {
          cert = cl[j].emit;
          // Advance certainty to the next emission (or done marker): the
          // parent knows child finished `next` when it was emitted.
          ptr[i] = j + 1;
        } else {
          // Child has no `next`; certainty comes from its next emission or
          // its done marker.
          cert = (j < cl.size())
                     ? cl[j].emit
                     : done_time[static_cast<std::size_t>(children[i])];
        }
        ready = std::max(ready, cert + 1);
      }
      if (own >= 0 && next == own) own_used = true;
      const long long emit = std::max(prev_emit + 1, ready);
      mine.push_back(Entry{next, emit});
      prev_emit = emit;
      budget -= 1;
      if (budget <= 0) return std::numeric_limits<long long>::max() / 4;
    }
    done_time[static_cast<std::size_t>(v)] = prev_emit + 1;  // done marker
  }

  const NodeId root = bfs_.root;
  long long up_rounds = done_time[static_cast<std::size_t>(root)];

  // Down phase: results stream from the root; each child receives the
  // parts of its subtree in order, one per round, after the parent has
  // them. Children of one node proceed in parallel (distinct edges).
  std::vector<std::vector<long long>> recv(static_cast<std::size_t>(n));
  long long finish = up_rounds;
  for (NodeId v : bfs_order_) {
    const auto& mine = parts_of[static_cast<std::size_t>(v)];
    auto& rv = recv[static_cast<std::size_t>(v)];
    if (v == root) {
      rv.assign(mine.size(), 0);
      continue;
    }
    const planar::DartId pd = bfs_.parent_dart[static_cast<std::size_t>(v)];
    const NodeId parent = g.head(pd);
    const auto& plist = parts_of[static_cast<std::size_t>(parent)];
    const auto& precv = recv[static_cast<std::size_t>(parent)];
    rv.resize(mine.size());
    std::size_t j = 0;
    long long prev = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      while (plist[j].part != mine[i].part) ++j;  // parent has a superset
      prev = std::max(prev + 1, precv[j] + 1);
      rv[i] = prev;
      finish = std::max(finish, up_rounds + prev);
    }
  }
  return finish;
}

AggregateResult PartwiseEngine::aggregate(const std::vector<int>& part,
                                          const std::vector<std::int64_t>& value,
                                          AggOp op) {
  obs::Span span("pa/aggregate");
  const NodeId n = g_->num_nodes();
  PLANSEP_CHECK(static_cast<NodeId>(part.size()) == n);
  PLANSEP_CHECK(static_cast<NodeId>(value.size()) == n);

  // Values: per-part reduction, then fan back out.
  int max_part = -1;
  for (int p : part) max_part = std::max(max_part, p);
  std::vector<std::int64_t> acc(static_cast<std::size_t>(max_part + 1),
                                identity(op));
  for (NodeId v = 0; v < n; ++v) {
    const int p = part[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    acc[static_cast<std::size_t>(p)] =
        combine(op, acc[static_cast<std::size_t>(p)], value[static_cast<std::size_t>(v)]);
  }
  AggregateResult out;
  out.value.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const int p = part[static_cast<std::size_t>(v)];
    if (p >= 0) {
      out.value[static_cast<std::size_t>(v)] = acc[static_cast<std::size_t>(p)];
    }
  }

  const IntraScan intra = intra_part_rounds(part);
  // Lower bound on the global-tree schedule, LB = max(D + 2, P + 1) + D,
  // where D is the deepest global-BFS depth of a participating node and P
  // the number of distinct parts. Up phase: the deepest node emits its
  // part in round >= 1 and each ancestor forwards it at least one round
  // after its child did, so the root emits it in round >= D + 1; the root
  // also emits its P parts one per round from round 1, and its done
  // marker follows its last emission, so the up phase takes
  // >= max(D + 2, P + 1) rounds. Down phase: each node receives a part at
  // least one round after its parent, so the deepest node's result lands
  // D rounds after the up phase. Both chains have exactly D edges because
  // depth(child) = depth(parent) + 1 on the tree, which init_derived()
  // checks. The budget sentinel is larger still. So whenever intra <= LB,
  // min(intra, global) = intra and the simulation is skipped; the
  // all-absent partition (no D) is always simulated.
  long long global = std::numeric_limits<long long>::max();
  if (intra.deepest < 0 ||
      intra.rounds > std::max<long long>(intra.deepest + 2, intra.parts + 1) +
                         intra.deepest) {
    global = global_tree_rounds(part);
  }
  out.cost.measured = std::min(intra.rounds, global);
  out.cost.charged = std::max(1, bfs_.height);
  out.cost.pa_calls = 1;
  span.note("measured", out.cost.measured);
  span.note("intra", intra.rounds);
  if (global < std::numeric_limits<long long>::max() / 8) {
    span.note("global_tree", global);
  }
  obs::advance_rounds(out.cost.measured);
  return out;
}

AggregateResult PartwiseEngine::broadcast(const std::vector<int>& part,
                                          const std::vector<std::int64_t>& source_value,
                                          const std::vector<char>& is_source) {
  std::vector<std::int64_t> value(source_value.size(), kIdentityMax);
  for (std::size_t i = 0; i < source_value.size(); ++i) {
    if (is_source[i]) value[i] = source_value[i];
  }
  return aggregate(part, value, AggOp::kMax);
}

}  // namespace plansep::shortcuts
