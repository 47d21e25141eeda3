// Weighted cycle separators (SeparatorEngine::compute_weighted).
//
// Strategy: the unweighted phase candidates already cover most shapes; on
// top we generate weight-aware candidates — the weighted centroid path,
// the root sweeps of Lemma 8 in both orders, Phase 3/4's faces and their
// augmentation sweep, all read under the node weights, and the path to the
// heaviest node (which alone suffices when one node carries > 2/3 of the
// weight). Every weight comes from the one implementation of Definition 2
// and its relatives (faces/weights.hpp, faces/augmentation.hpp) over a
// weighted tree::NodeWeights, which also walks the centroid and sums
// tree paths. The unweighted engine's search verifies the candidates
// against the weighted balance, settles the first that balances and,
// failing all, runs its last-resort scan under the weights too, so the
// result is always a weighted separator (tests monitor how often
// candidates fail).

#include "faces/augmentation.hpp"
#include "faces/containment.hpp"
#include "faces/hidden.hpp"
#include "obs/metrics.hpp"
#include "separator/engine.hpp"
#include "util/check.hpp"

namespace plansep::separator {

namespace {

using tree::RootedSpanningTree;

/// The weighted candidates of the part spanned by t, in verification
/// order: the unweighted engine's winner first, then the weight-aware
/// sweeps.
std::vector<Candidate> weighted_candidates(const RootedSpanningTree& t,
                                           const std::vector<long long>& weight,
                                           const PartSeparator& unweighted) {
  const tree::NodeWeights w(t, weight);
  const long long total = w.total();
  std::vector<Candidate> cands;
  if (total == 0 || t.size() <= 1) {
    cands.push_back({{t.root()}, planar::kNoEdge, 2});
    return cands;
  }
  // The unweighted winner.
  cands.push_back({unweighted.path, unweighted.closing_edge, unweighted.phase});
  // The weighted centroid path.
  cands.push_back({t.path(t.root(), w.centroid()), planar::kNoEdge, 61});
  // Weighted root sweeps, both orders: the leaf whose sweep weight
  // lands in [W/3, 2W/3] (take the sweep-latest such leaf).
  for (bool left : {true, false}) {
    planar::NodeId pick = planar::kNoNode;
    for (planar::NodeId z : t.nodes()) {
      if (z == t.root() || !t.children(z).empty()) continue;
      const long long sw = faces::root_sweep_weight(w, z, left);
      if (3 * sw < total || 3 * sw > 2 * total) continue;
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
  // weight-independent). The part's face table supplies every face once.
  const faces::FaceTable table(t);
  std::vector<long long> fw;
  fw.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    fw.push_back(faces::face_weight(w, table.face(i)));
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    const faces::FundamentalEdge& fe = table.edge(i);
    if (3 * fw[i] >= total && 3 * fw[i] <= 2 * total) {
      cands.push_back({t.path(fe.u, fe.v), fe.edge, 64});
      break;
    }
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    // A path already carrying >= W/3 is a separator by itself.
    const faces::FundamentalEdge& fe = table.edge(i);
    if (3 * w.path(fe.u, fe.v, fe.lca) >= total) {
      cands.push_back({t.path(fe.u, fe.v), fe.edge, 64});
      break;
    }
  }
  std::vector<std::size_t> heavy;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (3 * fw[i] > 2 * total) heavy.push_back(i);
  }
  if (!heavy.empty()) {
    const faces::FaceData& fd =
        table.face(faces::pick_not_contains(table, heavy));
    const faces::FundamentalEdge& estar = fd.fe;
    for (planar::NodeId z : t.nodes()) {
      if (!t.children(z).empty()) continue;
      if (faces::classify_node(fd, faces::node_data(t, z)) !=
          faces::FaceSide::kInside) {
        continue;
      }
      const long long aw = faces::augmented_weight(w, fd, z);
      if (3 * aw < total || 3 * aw > 2 * total) continue;
      const auto hiding = faces::hiding_edges(table, fd, z);
      if (hiding.empty()) {
        cands.push_back({t.path(estar.u, z), planar::kNoEdge, 65});
      } else {
        const faces::FundamentalEdge& fh =
            table.edge(faces::pick_not_contained(table, hiding));
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
    if (w.of(v) > w.of(heaviest)) heaviest = v;
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
  const RoundCost unit = sub::aggregation_price(*engine_, ps);
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
