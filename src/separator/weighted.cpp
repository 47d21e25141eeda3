// Weighted cycle separators (SeparatorEngine::compute_weighted).
//
// Strategy: the unweighted phase candidates already cover most shapes; on
// top we generate weight-aware candidates — the weighted centroid path,
// weighted root sweeps in both orders (the weighted analog of
// faces/augmentation.hpp's root_sweep_weight, computed from π-order prefix
// sums and ancestor-weight sums), and the path to the heaviest node (which
// alone suffices when one node carries > 2/3 of the weight). The
// unweighted engine's search verifies them against the weighted balance,
// settles the first that balances and, failing all, runs its last-resort
// scan under the weights too, so the result is always a weighted
// separator (tests monitor how often candidates fail).

#include <algorithm>

#include "faces/augmentation.hpp"
#include "faces/containment.hpp"
#include "faces/hidden.hpp"
#include "faces/membership.hpp"
#include "faces/weights.hpp"
#include "obs/metrics.hpp"
#include "separator/engine.hpp"
#include "util/check.hpp"

namespace plansep::separator {

namespace {

using tree::RootedSpanningTree;

struct WeightedView {
  long long total = 0;
  std::vector<long long> subtree;   // weighted subtree sums, per node
  std::vector<long long> prefix_l;  // prefix_l[k] = Σ weight, π_ℓ <= k (1-based)
  std::vector<long long> prefix_r;
  std::vector<long long> anc;       // Σ weight of ancestors incl. self
};

WeightedView weighted_view(const RootedSpanningTree& t,
                           const std::vector<long long>& weight) {
  WeightedView wv;
  const int n = t.size();
  const auto& g = t.graph();
  wv.subtree.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  wv.anc.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  wv.prefix_l.assign(static_cast<std::size_t>(n + 1), 0);
  wv.prefix_r.assign(static_cast<std::size_t>(n + 1), 0);
  for (planar::NodeId v : t.nodes()) {
    wv.total += weight[static_cast<std::size_t>(v)];
    wv.prefix_l[static_cast<std::size_t>(t.pi_left(v))] =
        weight[static_cast<std::size_t>(v)];
    wv.prefix_r[static_cast<std::size_t>(t.pi_right(v))] =
        weight[static_cast<std::size_t>(v)];
  }
  for (int k = 1; k <= n; ++k) {
    wv.prefix_l[static_cast<std::size_t>(k)] +=
        wv.prefix_l[static_cast<std::size_t>(k - 1)];
    wv.prefix_r[static_cast<std::size_t>(k)] +=
        wv.prefix_r[static_cast<std::size_t>(k - 1)];
  }
  // Subtree and ancestor sums via π_ℓ order (parents precede children in
  // preorder; reverse for subtree sums).
  std::vector<planar::NodeId> order = t.nodes();
  std::sort(order.begin(), order.end(),
            [&](planar::NodeId a, planar::NodeId b) {
              return t.pi_left(a) < t.pi_left(b);
            });
  for (planar::NodeId v : order) {
    const planar::NodeId p = t.parent(v);
    wv.anc[static_cast<std::size_t>(v)] =
        (p == planar::kNoNode ? 0 : wv.anc[static_cast<std::size_t>(p)]) +
        weight[static_cast<std::size_t>(v)];
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    wv.subtree[static_cast<std::size_t>(*it)] += weight[static_cast<std::size_t>(*it)];
    const planar::NodeId p = t.parent(*it);
    if (p != planar::kNoNode) {
      wv.subtree[static_cast<std::size_t>(p)] +=
          wv.subtree[static_cast<std::size_t>(*it)];
    }
  }
  return wv;
}

/// Weighted analog of faces::root_sweep_weight: the weight swept by the
/// closed curve path(root..x) + virtual closing edge at the root stub.
long long weighted_root_sweep(const RootedSpanningTree& t,
                              const WeightedView& wv, planar::NodeId x,
                              const std::vector<long long>& weight,
                              bool left) {
  const planar::NodeId r = t.root();
  const planar::NodeId z2 = faces::child_towards(t, r, x);
  const int off_z2 = t.t_offset(planar::EmbeddedGraph::rev(t.parent_dart(z2)));
  long long p = 0;
  for (planar::NodeId c : t.children(r)) {
    const int off = t.t_offset(planar::EmbeddedGraph::rev(t.parent_dart(c)));
    if (left ? off > off_z2 : off < off_z2) {
      p += wv.subtree[static_cast<std::size_t>(c)];
    }
  }
  const auto& prefix = left ? wv.prefix_l : wv.prefix_r;
  const int pix = left ? t.pi_left(x) : t.pi_right(x);
  const int piz = left ? t.pi_left(z2) : t.pi_right(z2);
  // Subtree of x (minus x), plus the swept siblings, plus the π interval
  // [π(z2), π(x)-1] minus the weight of the path z2..parent(x).
  const long long interval = prefix[static_cast<std::size_t>(pix - 1)] -
                             prefix[static_cast<std::size_t>(piz - 1)];
  const long long path_w = (wv.anc[static_cast<std::size_t>(x)] -
                            weight[static_cast<std::size_t>(x)]) -
                           (wv.anc[static_cast<std::size_t>(z2)] -
                            weight[static_cast<std::size_t>(z2)]);
  return (wv.subtree[static_cast<std::size_t>(x)] -
          weight[static_cast<std::size_t>(x)]) +
         p + interval - path_w;
}


/// Definition 2 generalized to node weights via π-order prefix sums: the
/// weighted content of F̃_e (u not an ancestor of v) or F̊_e (ancestor
/// case), mirroring faces/weights.cpp with counts replaced by weights.
long long weighted_face_weight(const RootedSpanningTree& t,
                               const WeightedView& wv,
                               const faces::FundamentalEdge& fe,
                               const std::vector<long long>& weight) {
  long long pu = 0, pv = 0;
  for (planar::NodeId c : faces::inside_children(t, fe, fe.u)) {
    pu += wv.subtree[static_cast<std::size_t>(c)];
  }
  for (planar::NodeId c : faces::inside_children(t, fe, fe.v)) {
    pv += wv.subtree[static_cast<std::size_t>(c)];
  }
  if (!fe.u_ancestor_of_v) {
    const int lo = t.pi_left(fe.u) + t.subtree_size(fe.u);  // exclusive
    const int hi = t.pi_left(fe.v) - 1;                     // inclusive
    const long long interval =
        hi >= lo ? wv.prefix_l[static_cast<std::size_t>(hi)] -
                       wv.prefix_l[static_cast<std::size_t>(lo)]
                 : 0;
    return pu + pv + interval + weight[static_cast<std::size_t>(fe.v)];
  }
  const bool left = faces::uses_left_order(fe);
  const auto& prefix = left ? wv.prefix_l : wv.prefix_r;
  const int piv = left ? t.pi_left(fe.v) : t.pi_right(fe.v);
  const int piz = left ? t.pi_left(fe.z) : t.pi_right(fe.z);
  const long long interval = prefix[static_cast<std::size_t>(piv - 1)] -
                             prefix[static_cast<std::size_t>(piz - 1)];
  // Subtract the weighted border segment z1..parent(v).
  const long long border =
      (wv.anc[static_cast<std::size_t>(fe.v)] -
       weight[static_cast<std::size_t>(fe.v)]) -
      (wv.anc[static_cast<std::size_t>(fe.z)] -
       weight[static_cast<std::size_t>(fe.z)]);
  return pu + pv + interval - border;
}

/// Weighted full-augmentation weight from fe.u to a node z inside F_e
/// (mirrors faces::augmented_weight).
long long weighted_augmented(const RootedSpanningTree& t,
                             const WeightedView& wv,
                             const faces::FundamentalEdge& fe,
                             planar::NodeId z,
                             const std::vector<long long>& weight) {
  const planar::NodeId u = fe.u;
  const bool use_left = !fe.u_ancestor_of_v || faces::uses_left_order(fe);
  const auto& prefix = use_left ? wv.prefix_l : wv.prefix_r;
  auto pi = [&](planar::NodeId x) {
    return use_left ? t.pi_left(x) : t.pi_right(x);
  };
  const long long wz =
      wv.subtree[static_cast<std::size_t>(z)] - weight[static_cast<std::size_t>(z)];
  if (!t.is_ancestor(u, z)) {
    long long pu = 0;
    for (planar::NodeId c : faces::inside_children(t, fe, u)) {
      pu += wv.subtree[static_cast<std::size_t>(c)];
    }
    const int lo = t.pi_left(u) + t.subtree_size(u);  // exclusive
    const int hi = t.pi_left(z) - 1;
    const long long interval =
        hi >= lo ? wv.prefix_l[static_cast<std::size_t>(hi)] -
                       wv.prefix_l[static_cast<std::size_t>(lo)]
                 : 0;
    return pu + wz + interval + weight[static_cast<std::size_t>(z)];
  }
  const planar::NodeId z2 = faces::child_towards(t, u, z);
  const int off_z2 = t.t_offset(planar::EmbeddedGraph::rev(t.parent_dart(z2)));
  long long pu = 0;
  for (planar::NodeId c : faces::inside_children(t, fe, u)) {
    const int off = t.t_offset(planar::EmbeddedGraph::rev(t.parent_dart(c)));
    if (use_left ? off > off_z2 : off < off_z2) {
      pu += wv.subtree[static_cast<std::size_t>(c)];
    }
  }
  const long long interval = prefix[static_cast<std::size_t>(pi(z) - 1)] -
                             prefix[static_cast<std::size_t>(pi(z2) - 1)];
  const long long border =
      (wv.anc[static_cast<std::size_t>(z)] - weight[static_cast<std::size_t>(z)]) -
      (wv.anc[static_cast<std::size_t>(z2)] - weight[static_cast<std::size_t>(z2)]);
  return wz + pu + interval - border;
}

/// The weighted candidates of the part spanned by t, in verification
/// order: the unweighted engine's winner first, then the weight-aware
/// sweeps.
std::vector<Candidate> weighted_candidates(const RootedSpanningTree& t,
                                           const std::vector<long long>& weight,
                                           const PartSeparator& unweighted) {
  const WeightedView wv = weighted_view(t, weight);
  const long long total = wv.total;
  std::vector<Candidate> cands;
  if (total == 0 || t.size() <= 1) {
    cands.push_back({{t.root()}, planar::kNoEdge, 2});
    return cands;
  }
  // The unweighted winner.
  cands.push_back({unweighted.path, unweighted.closing_edge, unweighted.phase});
  // Weighted centroid walk: descend into any child whose weighted
  // subtree exceeds half the total.
  planar::NodeId c = t.root();
  for (;;) {
    planar::NodeId heavy = planar::kNoNode;
    for (planar::NodeId ch : t.children(c)) {
      if (2 * wv.subtree[static_cast<std::size_t>(ch)] > total) {
        heavy = ch;
        break;
      }
    }
    if (heavy == planar::kNoNode) break;
    c = heavy;
  }
  cands.push_back({t.path(t.root(), c), planar::kNoEdge, 61});
  // Weighted root sweeps, both orders: the leaf whose sweep weight
  // lands in [W/3, 2W/3] (take the sweep-latest such leaf).
  for (bool left : {true, false}) {
    planar::NodeId pick = planar::kNoNode;
    for (planar::NodeId z : t.nodes()) {
      if (z == t.root() || !t.children(z).empty()) continue;
      const long long w = weighted_root_sweep(t, wv, z, weight, left);
      if (3 * w < total || 3 * w > 2 * total) continue;
      if (pick == planar::kNoNode ||
          (left ? t.pi_left(z) > t.pi_left(pick)
                : t.pi_right(z) > t.pi_right(pick))) {
        pick = z;
      }
    }
    if (pick != planar::kNoNode) {
      cands.push_back({t.path(t.root(), pick), planar::kNoEdge, 62});
    }
  }
  // Weighted Phase 3/4: real fundamental faces with weighted content
  // in range; weighted long paths; weighted augmentation sweep of a
  // maximal heavy face (with the hidden fallback, which is
  // weight-independent).
  std::vector<faces::FundamentalEdge> fes;
  std::vector<long long> fw;
  for (planar::EdgeId e : faces::real_fundamental_edges(t)) {
    fes.push_back(faces::analyze_fundamental_edge(t, e));
    fw.push_back(weighted_face_weight(t, wv, fes.back(), weight));
  }
  for (std::size_t i = 0; i < fes.size(); ++i) {
    if (3 * fw[i] >= total && 3 * fw[i] <= 2 * total) {
      cands.push_back({t.path(fes[i].u, fes[i].v), fes[i].edge, 64});
      break;
    }
  }
  for (std::size_t i = 0; i < fes.size(); ++i) {
    // A path already carrying >= W/3 is a separator by itself.
    const long long pw =
        wv.anc[static_cast<std::size_t>(fes[i].u)] +
        wv.anc[static_cast<std::size_t>(fes[i].v)] -
        2 * wv.anc[static_cast<std::size_t>(t.lca(fes[i].u, fes[i].v))] +
        weight[static_cast<std::size_t>(t.lca(fes[i].u, fes[i].v))];
    if (3 * pw >= total) {
      cands.push_back({t.path(fes[i].u, fes[i].v), fes[i].edge, 64});
      break;
    }
  }
  std::vector<faces::FundamentalEdge> heavy;
  for (std::size_t i = 0; i < fes.size(); ++i) {
    if (3 * fw[i] > 2 * total) heavy.push_back(fes[i]);
  }
  if (!heavy.empty()) {
    const auto estar = faces::pick_not_contains(t, heavy);
    const faces::FaceData fd = faces::face_data(t, estar);
    for (planar::NodeId z : t.nodes()) {
      if (!t.children(z).empty()) continue;
      if (faces::classify_node(fd, faces::node_data(t, z)) !=
          faces::FaceSide::kInside) {
        continue;
      }
      const long long aw = weighted_augmented(t, wv, estar, z, weight);
      if (3 * aw < total || 3 * aw > 2 * total) continue;
      const auto hiding = faces::hiding_edges(t, estar, z);
      if (hiding.empty()) {
        cands.push_back({t.path(estar.u, z), planar::kNoEdge, 65});
      } else {
        const auto fh = faces::pick_not_contained(t, hiding);
        cands.push_back({t.path(estar.u, fh.v), planar::kNoEdge, 65});
        cands.push_back({t.path(estar.u, fh.u), planar::kNoEdge, 65});
      }
      break;
    }
    cands.push_back({t.path(estar.u, estar.v), estar.edge, 65});
  }
  // The heaviest node: if some node alone carries > 2W/3, any path
  // through it is a weighted separator.
  planar::NodeId heaviest = t.root();
  for (planar::NodeId v : t.nodes()) {
    if (weight[static_cast<std::size_t>(v)] >
        weight[static_cast<std::size_t>(heaviest)]) {
      heaviest = v;
    }
  }
  cands.push_back({t.path(t.root(), heaviest), planar::kNoEdge, 63});
  return cands;
}

}  // namespace

SeparatorResult SeparatorEngine::compute_weighted(
    const PartSet& ps, const std::vector<long long>& weight) {
  PLANSEP_CHECK(static_cast<planar::NodeId>(weight.size()) ==
                ps.g->num_nodes());
  for (long long w : weight) PLANSEP_CHECK_MSG(w >= 0, "negative weight");

  obs::Span span("separator/weighted");
  SeparatorResult out;
  out.parts.resize(static_cast<std::size_t>(ps.num_parts));
  out.marked.assign(static_cast<std::size_t>(ps.g->num_nodes()), 0);

  // Cost model: the unweighted phase charges plus one Proposition-5-style
  // charge for the weighted prefix/subtree sums.
  const RoundCost unit = aggregation_price(*engine_, ps);
  out.cost += shortcuts::aggregations(unit, 34);  // phases 2-5 as in compute()
  out.cost += engine_->blackbox_charge();         // weighted sums
  out.cost += shortcuts::local_exchange(6);

  // Unweighted candidates first (verified against the weighted balance);
  // weight-aware candidates after them.
  const SeparatorResult unweighted = compute(ps);
  out.cost += unweighted.cost;
  const auto propose = [&](int p) {
    return weighted_candidates(ps.tree_of_part(p), weight,
                               unweighted.parts[static_cast<std::size_t>(p)]);
  };
  search(ps, propose, weight, out);
  // Weighted-balance verification: five rounds, shared across parts.
  out.cost += shortcuts::aggregations(unit, verification_aggregations(ps, 5));
  return out;
}

}  // namespace plansep::separator
