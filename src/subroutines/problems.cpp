#include "subroutines/problems.hpp"

#include <limits>

#include "faces/hidden.hpp"
#include "util/check.hpp"

namespace plansep::sub {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

/// Encodes (value, node) so the aggregation's arg-min/arg-max is
/// deterministic: value in the high bits, node id in the low 32.
std::int64_t encode(std::int64_t value, NodeId v, bool negate_id) {
  const std::int64_t id = negate_id ? (0x7fffffffLL - v) : v;
  return (value << 32) | id;
}

NodeId decode_node(std::int64_t key, bool negate_id) {
  const std::int64_t id = key & 0x7fffffffLL;
  return static_cast<NodeId>(negate_id ? (0x7fffffffLL - id) : id);
}

PerPart<NodeId> extreme_problem(const PartSet& ps, PartwiseEngine& engine,
                                const std::vector<std::int64_t>& x,
                                const std::vector<char>& participates,
                                bool want_min) {
  const NodeId n = ps.g->num_nodes();
  PLANSEP_CHECK(static_cast<NodeId>(x.size()) == n);
  std::vector<std::int64_t> keyed(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (!participates.empty() && !participates[static_cast<std::size_t>(v)]) {
      keyed[static_cast<std::size_t>(v)] = want_min ? kInf : -kInf;
    } else {
      // Clamp into the encodable range.
      const std::int64_t val = std::clamp<std::int64_t>(
          x[static_cast<std::size_t>(v)], -(1LL << 30), (1LL << 30));
      keyed[static_cast<std::size_t>(v)] = encode(val, v, !want_min);
    }
  }
  auto agg = engine.aggregate(
      ps.part, keyed, want_min ? shortcuts::AggOp::kMin : shortcuts::AggOp::kMax);
  PerPart<NodeId> out;
  out.value.assign(static_cast<std::size_t>(ps.num_parts), planar::kNoNode);
  out.cost = agg.cost;
  for (NodeId v = 0; v < n; ++v) {
    const int p = ps.part_of(v);
    if (p < 0) continue;
    const std::int64_t key = agg.value[static_cast<std::size_t>(v)];
    if (key == kInf || key == -kInf) continue;
    out.value[static_cast<std::size_t>(p)] = decode_node(key, !want_min);
  }
  return out;
}

}  // namespace

PerPart<NodeId> min_problem(const PartSet& ps, PartwiseEngine& engine,
                            const std::vector<std::int64_t>& x,
                            const std::vector<char>& participates) {
  return extreme_problem(ps, engine, x, participates, /*want_min=*/true);
}

PerPart<NodeId> max_problem(const PartSet& ps, PartwiseEngine& engine,
                            const std::vector<std::int64_t>& x,
                            const std::vector<char>& participates) {
  return extreme_problem(ps, engine, x, participates, /*want_min=*/false);
}

PerPart<std::int64_t> sum_subset_problem(const PartSet& ps,
                                         PartwiseEngine& engine) {
  const NodeId n = ps.g->num_nodes();
  std::vector<std::int64_t> ones(static_cast<std::size_t>(n), 1);
  auto agg = engine.aggregate(ps.part, ones, shortcuts::AggOp::kSum);
  PerPart<std::int64_t> out;
  out.value.assign(static_cast<std::size_t>(ps.num_parts), 0);
  out.cost = agg.cost;
  for (NodeId v = 0; v < n; ++v) {
    const int p = ps.part_of(v);
    if (p >= 0) {
      out.value[static_cast<std::size_t>(p)] =
          agg.value[static_cast<std::size_t>(v)];
    }
  }
  return out;
}

PerPart<NodeId> range_problem(const PartSet& ps, PartwiseEngine& engine,
                              const std::vector<std::int64_t>& x,
                              std::int64_t lo, std::int64_t hi) {
  std::vector<char> in_range(x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    in_range[i] = (x[i] >= lo && x[i] <= hi);
  }
  return max_problem(ps, engine, x, in_range);
}

namespace {

PerNode relation_problem(const PartSet& ps, PartwiseEngine& engine,
                         const std::vector<NodeId>& target_of_part,
                         bool ancestors) {
  const NodeId n = ps.g->num_nodes();
  PerNode out;
  out.flag.assign(static_cast<std::size_t>(n), 0);
  // Broadcast π_ℓ(target) per part: two words (position and subtree
  // size), two aggregations.
  out.cost = shortcuts::aggregations(aggregation_price(engine, ps), 2);
  for (NodeId v = 0; v < n; ++v) {
    const int p = ps.part_of(v);
    if (p < 0) continue;
    const NodeId t = target_of_part[static_cast<std::size_t>(p)];
    if (t == planar::kNoNode) continue;
    const auto& tree = ps.tree_of_part(p);
    out.flag[static_cast<std::size_t>(v)] =
        ancestors ? tree.is_ancestor(v, t) : tree.is_ancestor(t, v);
  }
  return out;
}

}  // namespace

PerNode ancestor_problem(const PartSet& ps, PartwiseEngine& engine,
                         const std::vector<NodeId>& target_of_part) {
  return relation_problem(ps, engine, target_of_part, /*ancestors=*/true);
}

PerNode descendant_problem(const PartSet& ps, PartwiseEngine& engine,
                           const std::vector<NodeId>& target_of_part) {
  return relation_problem(ps, engine, target_of_part, /*ancestors=*/false);
}

PerNode mark_path_problem(const PartSet& ps, PartwiseEngine& engine,
                          const std::vector<NodeId>& u_of_part,
                          const std::vector<NodeId>& w_of_part) {
  const NodeId n = ps.g->num_nodes();
  PerNode out;
  out.flag.assign(static_cast<std::size_t>(n), 0);
  // Broadcast the two endpoints' positions (2 aggregations), then decide
  // locally: v is on path(u,w) iff (anc(v,u) XOR anc(v,w)) or v = LCA(u,w),
  // the latter detected as "ancestor of both with maximal depth" via one
  // more MAX aggregation.
  out.cost = shortcuts::aggregations(aggregation_price(engine, ps), 3);
  for (NodeId v = 0; v < n; ++v) {
    const int p = ps.part_of(v);
    if (p < 0) continue;
    const NodeId u = u_of_part[static_cast<std::size_t>(p)];
    const NodeId w = w_of_part[static_cast<std::size_t>(p)];
    if (u == planar::kNoNode || w == planar::kNoNode) continue;
    const auto& t = ps.tree_of_part(p);
    const bool au = t.is_ancestor(v, u);
    const bool aw = t.is_ancestor(v, w);
    out.flag[static_cast<std::size_t>(v)] =
        (au != aw) || (au && aw && v == t.lca(u, w));
  }
  return out;
}

PerPart<NodeId> lca_problem(const PartSet& ps, PartwiseEngine& engine,
                            const std::vector<NodeId>& u_of_part,
                            const std::vector<NodeId>& w_of_part) {
  const NodeId n = ps.g->num_nodes();
  // Each common ancestor contributes depth+1; MAX-PROBLEM finds the
  // deepest (Lemma 14's construction).
  std::vector<std::int64_t> x(static_cast<std::size_t>(n), 0);
  std::vector<char> participates(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const int p = ps.part_of(v);
    if (p < 0) continue;
    const NodeId u = u_of_part[static_cast<std::size_t>(p)];
    const NodeId w = w_of_part[static_cast<std::size_t>(p)];
    if (u == planar::kNoNode || w == planar::kNoNode) continue;
    const auto& t = ps.tree_of_part(p);
    if (t.is_ancestor(v, u) && t.is_ancestor(v, w)) {
      participates[static_cast<std::size_t>(v)] = 1;
      x[static_cast<std::size_t>(v)] = t.depth(v) + 1;
    }
  }
  return max_problem(ps, engine, x, participates);
}

PerNode detect_face_problem(const PartSet& ps, PartwiseEngine& engine,
                            const std::vector<FundamentalEdge>& edge_of_part) {
  const NodeId n = ps.g->num_nodes();
  PerNode out;
  out.flag.assign(static_cast<std::size_t>(n), 0);
  // The FaceData payload is a constant number of words (Lemma 15's
  // intervals I(u), I(v) plus endpoint positions): charge 6 aggregations.
  out.cost = shortcuts::aggregations(aggregation_price(engine, ps), 6);
  for (int p = 0; p < ps.num_parts; ++p) {
    if (!ps.has_tree(p)) continue;
    const auto& fe = edge_of_part[static_cast<std::size_t>(p)];
    if (fe.edge == planar::kNoEdge) continue;
    const auto& t = ps.tree_of_part(p);
    const faces::FaceData fd = faces::face_data(t, fe);
    for (NodeId v : t.nodes()) {
      out.flag[static_cast<std::size_t>(v)] =
          faces::classify_node(fd, faces::node_data(t, v)) !=
          faces::FaceSide::kOutside;
    }
  }
  return out;
}

PerPart<bool> hidden_problem(const PartSet& ps, PartwiseEngine& engine,
                             const std::vector<FundamentalEdge>& edge_of_part,
                             const std::vector<NodeId>& z_of_part) {
  PerPart<bool> out;
  out.value.assign(static_cast<std::size_t>(ps.num_parts), false);
  // Broadcast z's data, evaluate `hides` at every fundamental edge in
  // parallel (local after the broadcast), aggregate the OR: 3 calls.
  out.cost = shortcuts::aggregations(aggregation_price(engine, ps), 3);
  out.cost += shortcuts::local_exchange(1);
  for (int p = 0; p < ps.num_parts; ++p) {
    if (!ps.has_tree(p)) continue;
    const auto& fe = edge_of_part[static_cast<std::size_t>(p)];
    const NodeId z = z_of_part[static_cast<std::size_t>(p)];
    if (fe.edge == planar::kNoEdge || z == planar::kNoNode) continue;
    const auto& t = ps.tree_of_part(p);
    const faces::FaceTable table(t);
    out.value[static_cast<std::size_t>(p)] =
        !faces::hiding_edges(table, faces::face_data(t, fe), z).empty();
  }
  return out;
}

PartSet re_root_problem(const PartSet& ps, PartwiseEngine& engine,
                        const std::vector<NodeId>& new_root_of_part) {
  const auto& g = *ps.g;
  std::vector<planar::DartId> parent(static_cast<std::size_t>(g.num_nodes()),
                                     planar::kNoDart);
  std::vector<NodeId> roots(static_cast<std::size_t>(ps.num_parts),
                            planar::kNoNode);
  for (int p = 0; p < ps.num_parts; ++p) {
    if (!ps.has_tree(p)) continue;
    const auto& t = ps.tree_of_part(p);
    for (NodeId v : t.nodes()) {
      parent[static_cast<std::size_t>(v)] = t.parent_dart(v);
    }
    NodeId want = new_root_of_part[static_cast<std::size_t>(p)];
    if (want == planar::kNoNode) want = t.root();
    roots[static_cast<std::size_t>(p)] = want;
    re_root_path(g, parent, want);
  }
  PartSet out = part_set_from_forest(g, ps.part, ps.num_parts, parent, roots,
                                     engine);
  out.cost += engine.blackbox_charge();  // the depth/parent updates
  return out;
}

}  // namespace plansep::sub
