#include "subroutines/part_context.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace plansep::sub {

namespace {

PartSet finish_part_set(const EmbeddedGraph& g, const std::vector<int>& part,
                        int num_parts,
                        const std::vector<planar::DartId>& parent_dart,
                        const std::vector<NodeId>& roots,
                        PartwiseEngine& engine, RoundCost base_cost) {
  PartSet ps;
  ps.g = &g;
  ps.part = part;
  ps.num_parts = num_parts;
  ps.roots = roots;
  ps.cost = base_cost;

  ps.trees = RootedSpanningTree::forest(g, part, roots, parent_dart);

  // Distributed representation: depths and subtree sizes via Proposition 5
  // (ancestor/descendant sums over arbitrary-depth trees, black box), then
  // the DFS orders via Lemma 11's fragment merging.
  ps.cost += engine.blackbox_charge();  // depths
  ps.cost += engine.blackbox_charge();  // subtree sizes
  ps.cost += charge_dfs_orders(engine, ps);
  return ps;
}

}  // namespace

PartSet build_part_set(const EmbeddedGraph& g, const std::vector<int>& part,
                       int num_parts, PartwiseEngine& engine,
                       const std::vector<NodeId>& preferred_root) {
  PLANSEP_SPAN("sub/part_set");
  SpanningForest forest = boruvka_forest(
      g, part, num_parts, [](EdgeId) { return 0; }, engine);
  std::vector<NodeId> roots = forest.root;
  std::vector<planar::DartId> parent = forest.parent_dart;
  if (!preferred_root.empty()) {
    // Re-root the affected trees (Lemma 19: one black-box charge; the
    // edges stay the same, only parent orientation flips along the path).
    bool any = false;
    for (int p = 0; p < num_parts; ++p) {
      const NodeId want = preferred_root[static_cast<std::size_t>(p)];
      if (want == planar::kNoNode ||
          want == roots[static_cast<std::size_t>(p)]) {
        continue;
      }
      PLANSEP_CHECK(part[static_cast<std::size_t>(want)] == p);
      any = true;
      re_root_path(g, parent, want);
      roots[static_cast<std::size_t>(p)] = want;
    }
    if (any) {
      // RE-ROOT-PROBLEM cost (Lemma 19).
      RoundCost rc = engine.blackbox_charge();
      forest.cost += rc;
    }
  }
  return finish_part_set(g, part, num_parts, parent, roots, engine,
                         forest.cost);
}

void re_root_path(const EmbeddedGraph& g,
                  std::vector<planar::DartId>& parent, NodeId new_root) {
  NodeId v = new_root;
  planar::DartId carry = planar::kNoDart;
  while (v != planar::kNoNode) {
    const planar::DartId old = parent[static_cast<std::size_t>(v)];
    parent[static_cast<std::size_t>(v)] = carry;
    if (old == planar::kNoDart) break;
    carry = EmbeddedGraph::rev(old);
    v = g.head(old);
  }
}

PartSet part_set_from_forest(const EmbeddedGraph& g,
                             const std::vector<int>& part, int num_parts,
                             const std::vector<planar::DartId>& parent_dart,
                             const std::vector<NodeId>& roots,
                             PartwiseEngine& engine) {
  return finish_part_set(g, part, num_parts, parent_dart, roots, engine,
                         RoundCost{});
}

RoundCost charge_dfs_orders(PartwiseEngine& engine, const PartSet& ps) {
  PLANSEP_SPAN("sub/orders");
  // Simulate the fragment partition evolution of Lemma 11: every node
  // starts as its own fragment whose depth is its tree depth; per phase,
  // fragments at odd depth merge into the fragment containing their root's
  // parent, and all depths halve. Each phase costs O(1) local rounds plus
  // a constant number of words broadcast fragment-wide (one PA over the
  // fragment partition per word).
  const EmbeddedGraph& g = *ps.g;
  const NodeId n = g.num_nodes();
  constexpr int kWordsPerPhase = 4;  // offset_l, offset_r, frag id, depth

  RoundCost total;
  std::vector<NodeId> frag_root(static_cast<std::size_t>(n));
  std::vector<long long> frag_depth(static_cast<std::size_t>(n), -1);
  std::vector<int> frag(static_cast<std::size_t>(n), -1);
  bool all_done = true;
  for (NodeId v = 0; v < n; ++v) {
    frag_root[static_cast<std::size_t>(v)] = v;
    const int p = ps.part_of(v);
    if (p < 0) continue;
    const auto& t = ps.tree_of_part(p);
    frag_depth[static_cast<std::size_t>(v)] = t.depth(v);
    if (t.depth(v) > 0) all_done = false;
  }
  if (all_done) return total;

  for (int phase = 0; phase < 64; ++phase) {
    // Current fragment partition (fragment id = root id).
    for (NodeId v = 0; v < n; ++v) {
      frag[static_cast<std::size_t>(v)] =
          ps.part_of(v) < 0 ? -1 : frag_root[static_cast<std::size_t>(v)];
    }
    // Cost: local handshake + fragment-wide broadcast of kWordsPerPhase.
    total += shortcuts::local_exchange(2);
    std::vector<std::int64_t> zeros(static_cast<std::size_t>(n), 0);
    auto agg = engine.aggregate(frag, zeros, shortcuts::AggOp::kMax);
    // aggregate() advanced the obs clock by one unit; mirror the
    // remaining kWordsPerPhase - 1 words of the ledger charge.
    obs::advance_rounds(agg.cost.measured * (kWordsPerPhase - 1));
    agg.cost.measured *= kWordsPerPhase;
    agg.cost.charged *= kWordsPerPhase;
    agg.cost.pa_calls *= kWordsPerPhase;
    total += agg.cost;

    // Merge odd-depth fragments into their parent's fragment.
    bool changed = false;
    std::vector<NodeId> new_root = frag_root;
    for (NodeId v = 0; v < n; ++v) {
      const int p = ps.part_of(v);
      if (p < 0) continue;
      const NodeId r = frag_root[static_cast<std::size_t>(v)];
      if (frag_depth[static_cast<std::size_t>(r)] % 2 == 1) {
        const auto& t = ps.tree_of_part(p);
        const NodeId pr = t.parent(r);
        PLANSEP_CHECK(pr != planar::kNoNode);
        new_root[static_cast<std::size_t>(v)] =
            frag_root[static_cast<std::size_t>(pr)];
        changed = true;
      }
    }
    frag_root = new_root;
    bool done = true;
    for (NodeId v = 0; v < n; ++v) {
      if (ps.part_of(v) < 0) continue;
      const NodeId r = frag_root[static_cast<std::size_t>(v)];
      frag_depth[static_cast<std::size_t>(v)] =
          frag_depth[static_cast<std::size_t>(r)];
      if (frag_root[static_cast<std::size_t>(v)] !=
          ps.roots[static_cast<std::size_t>(ps.part_of(v))]) {
        done = false;
      }
    }
    // Halve fragment depths.
    for (NodeId v = 0; v < n; ++v) {
      if (frag_depth[static_cast<std::size_t>(v)] > 0) {
        frag_depth[static_cast<std::size_t>(v)] /= 2;
      }
    }
    if (done || !changed) break;
  }
  return total;
}

RoundCost aggregation_price(PartwiseEngine& engine, const PartSet& ps) {
  const std::vector<std::int64_t> zeros(
      static_cast<std::size_t>(ps.g->num_nodes()), 0);
  return engine.aggregate(ps.part, zeros, shortcuts::AggOp::kMax).cost;
}

}  // namespace plansep::sub
