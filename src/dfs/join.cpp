#include "dfs/join.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "subroutines/components.hpp"
#include "subroutines/part_context.hpp"
#include "util/check.hpp"

namespace plansep::dfs {

namespace {

using sub::PartSet;
using tree::RootedSpanningTree;

/// Endpoints of the marked fragments in t: marked nodes with no marked
/// child (every fragment is a tree path thanks to the 0/1 MST, so each
/// contributes at most two).
std::vector<NodeId> fragment_endpoints(const RootedSpanningTree& t,
                                       const std::vector<char>& marked) {
  std::vector<NodeId> out;
  for (NodeId v : t.nodes()) {
    if (!marked[static_cast<std::size_t>(v)]) continue;
    bool has_marked_child = false;
    for (NodeId c : t.children(v)) {
      if (marked[static_cast<std::size_t>(c)]) {
        has_marked_child = true;
        break;
      }
    }
    if (!has_marked_child) out.push_back(v);
  }
  return out;
}

}  // namespace

JoinResult join_separators(PartialDfsTree& tree, const std::vector<char>& marked,
                           shortcuts::PartwiseEngine& engine) {
  obs::Span span("dfs/join");
  const EmbeddedGraph& g = tree.graph();
  const NodeId n = g.num_nodes();
  JoinResult out;

  std::vector<char> remaining(marked);
  for (NodeId v = 0; v < n; ++v) {
    if (tree.contains(v)) remaining[static_cast<std::size_t>(v)] = 0;
  }

  for (;;) {
    long long left = 0;
    for (char c : remaining) left += c;
    if (left == 0) break;
    PLANSEP_CHECK_MSG(out.iterations < 1000, "JOIN did not converge");
    ++out.iterations;

    // Components of G − T_d; keep those holding marked nodes.
    const sub::Components comps = sub::connected_components(
        g, [&](NodeId v) { return !tree.contains(v); });
    std::vector<char> active(static_cast<std::size_t>(comps.count), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (remaining[static_cast<std::size_t>(v)]) {
        active[static_cast<std::size_t>(comps.label[static_cast<std::size_t>(v)])] = 1;
      }
    }
    // Re-index active components as parts.
    std::vector<int> part_of_comp(static_cast<std::size_t>(comps.count), -1);
    int num_parts = 0;
    for (int c = 0; c < comps.count; ++c) {
      if (active[static_cast<std::size_t>(c)]) {
        part_of_comp[static_cast<std::size_t>(c)] = num_parts++;
      }
    }
    std::vector<int> part(static_cast<std::size_t>(n), -1);
    for (NodeId v = 0; v < n; ++v) {
      if (tree.contains(v)) continue;
      part[static_cast<std::size_t>(v)] =
          part_of_comp[static_cast<std::size_t>(comps.label[static_cast<std::size_t>(v)])];
    }
    // Components pass: one Borůvka-style labelling, O(log n) aggregations.
    out.cost += engine.blackbox_charge();

    // Attachment nodes: per part, the node with the deepest tree neighbor
    // (one local exchange + one aggregation).
    out.cost += shortcuts::local_exchange(1);
    std::vector<NodeId> r_c(static_cast<std::size_t>(num_parts),
                            planar::kNoNode);
    std::vector<int> best_depth(static_cast<std::size_t>(num_parts), -1);
    for (NodeId v = 0; v < n; ++v) {
      const int p = part[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      const NodeId nb = tree.deepest_tree_neighbor(v);
      if (nb == planar::kNoNode) continue;
      const int d = tree.depth(nb);
      if (d > best_depth[static_cast<std::size_t>(p)] ||
          (d == best_depth[static_cast<std::size_t>(p)] &&
           v < r_c[static_cast<std::size_t>(p)])) {
        best_depth[static_cast<std::size_t>(p)] = d;
        r_c[static_cast<std::size_t>(p)] = v;
      }
    }
    for (int p = 0; p < num_parts; ++p) {
      PLANSEP_CHECK_MSG(r_c[static_cast<std::size_t>(p)] != planar::kNoNode,
                        "component has no attachment to the tree");
    }

    // 0/1 MST per part, rooted at r_C: marked-marked edges weigh 0 so the
    // surviving fragments are contiguous tree paths (Lemma 2).
    sub::SpanningForest forest = sub::boruvka_forest(
        g, part, num_parts,
        [&](planar::EdgeId e) {
          return (remaining[static_cast<std::size_t>(g.edge_u(e))] &&
                  remaining[static_cast<std::size_t>(g.edge_v(e))])
                     ? 0
                     : 1;
        },
        engine);
    out.cost += forest.cost;
    // Re-root each part's tree at r_C (Lemma 19).
    std::vector<planar::DartId> parent = forest.parent_dart;
    for (int p = 0; p < num_parts; ++p) {
      sub::re_root_path(g, parent, r_c[static_cast<std::size_t>(p)]);
    }
    out.cost += engine.blackbox_charge();  // RE-ROOT
    PartSet ps = sub::part_set_from_forest(g, part, num_parts, parent, r_c,
                                           engine);
    out.cost += ps.cost;

    // Per part: pick the fragment endpoint whose root path absorbs the
    // most marked nodes, mark the path, attach.
    out.cost += engine.blackbox_charge();  // marked-ancestor counts
    for (int p = 0; p < num_parts; ++p) {
      const RootedSpanningTree& t = ps.tree_of_part(p);
      const std::vector<NodeId> ends = fragment_endpoints(t, remaining);
      PLANSEP_CHECK(!ends.empty());
      NodeId best = planar::kNoNode;
      long long best_cover = -1;
      for (NodeId h : ends) {
        long long cover = 0;
        for (NodeId x = h; x != planar::kNoNode; x = t.parent(x)) {
          if (remaining[static_cast<std::size_t>(x)]) ++cover;
        }
        if (cover > best_cover || (cover == best_cover && h < best)) {
          best_cover = cover;
          best = h;
        }
      }
      const std::vector<NodeId> path = t.path(t.root(), best);
      const NodeId anchor = tree.deepest_tree_neighbor(t.root());
      tree.attach_path(anchor, path);
      out.nodes_added += static_cast<long long>(path.size());
      for (NodeId v : path) remaining[static_cast<std::size_t>(v)] = 0;
    }
    // MARK-PATH + attachment broadcast.
    out.cost += engine.blackbox_charge();
    out.cost += shortcuts::local_exchange(1);
  }
  span.note("iterations", out.iterations);
  span.note("nodes_added", out.nodes_added);
  return out;
}

}  // namespace plansep::dfs
