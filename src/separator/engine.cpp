#include "separator/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "faces/augmentation.hpp"
#include "faces/containment.hpp"
#include "faces/hidden.hpp"
#include "obs/metrics.hpp"
#include "subroutines/components.hpp"
#include "util/check.hpp"

namespace plansep::separator {

namespace {

using faces::FaceData;
using faces::FaceSide;
using tree::RootedSpanningTree;

/// Candidates for one part, in the phase order of §5.3. The part's face
/// table is built once here and freed on return.
std::vector<Candidate> candidates_for_part(const PartSet& ps, int p) {
  const RootedSpanningTree& t = ps.tree_of_part(p);
  const tree::NodeWeights unit(t);
  const long long n = t.size();
  std::vector<Candidate> out;

  if (n <= 3) {
    out.push_back({{t.root()}, planar::kNoEdge, 2});
    return out;
  }

  // Phase 2: tree part — root→centroid path.
  if (faces::real_fundamental_edges(t).empty()) {
    out.push_back({t.path(t.root(), unit.centroid()), planar::kNoEdge, 2});
    return out;
  }

  const faces::FaceTable table(t);

  // Phase 3: a face with ω ∈ [n/3, 2n/3].
  for (std::size_t i = 0; i < table.size(); ++i) {
    const FundamentalEdge& fe = table.edge(i);
    if (3 * table.weight(i) >= n && 3 * table.weight(i) <= 2 * n) {
      out.push_back({t.path(fe.u, fe.v), fe.edge, 3});
      break;
    }
  }
  // Lemma 1 case 3: a fundamental edge whose tree path has ≥ n/3 nodes is
  // itself a (cycle) separator.
  for (std::size_t i = 0; i < table.size(); ++i) {
    const FundamentalEdge& fe = table.edge(i);
    if (3 * unit.path(fe.u, fe.v, fe.lca) >= n) {
      out.push_back({t.path(fe.u, fe.v), fe.edge, 33});
      break;
    }
  }

  std::vector<std::size_t> heavy;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (3 * table.weight(i) > 2 * n) heavy.push_back(i);
  }

  if (!heavy.empty()) {
    // Phase 4: minimal heavy face, full augmentation from u.
    const FaceData& fd = table.face(faces::pick_not_contains(table, heavy));
    const FundamentalEdge& estar = fd.fe;
    std::vector<NodeId> leaves;
    for (NodeId z : t.nodes()) {
      if (!t.children(z).empty()) continue;
      if (faces::classify_node(fd, faces::node_data(t, z)) !=
          FaceSide::kInside) {
        continue;
      }
      leaves.push_back(z);
    }
    // Sub-phase 4.1: leaf with augmented weight in range; prefer the
    // sweep-highest one (Lemma 7's choice).
    const bool use_left =
        !estar.u_ancestor_of_v || faces::uses_left_order(estar);
    std::sort(leaves.begin(), leaves.end(), [&](NodeId a, NodeId b) {
      return (use_left ? t.pi_left(a) : t.pi_right(a)) >
             (use_left ? t.pi_left(b) : t.pi_right(b));
    });
    for (NodeId z : leaves) {
      const long long w = faces::augmented_weight(unit, fd, z);
      if (3 * w < n || 3 * w > 2 * n) continue;
      const auto hiding = faces::hiding_edges(table, fd, z);
      if (hiding.empty()) {
        out.push_back({t.path(estar.u, z), planar::kNoEdge, 41});
      } else {
        const FundamentalEdge& f =
            table.edge(faces::pick_not_contained(table, hiding));
        const NodeId z2 = t.pi_left(f.u) < t.pi_left(f.v) ? f.v : f.u;
        const NodeId z1 = z2 == f.u ? f.v : f.u;
        out.push_back({t.path(estar.u, z2), planar::kNoEdge, 45});
        out.push_back({t.path(estar.u, z1), planar::kNoEdge, 45});
      }
      break;
    }
    // Lemma 1 case 3 inside the augmentation: a long u..z path.
    for (NodeId z : leaves) {
      if (3 * unit.path(estar.u, z, t.lca(estar.u, z)) >= n) {
        out.push_back({t.path(estar.u, z), planar::kNoEdge, 43});
        break;
      }
    }
    // Sub-phase 4.2: the face's own path.
    out.push_back({t.path(estar.u, estar.v), estar.edge, 42});
  } else {
    // Phase 5: every face is light; maximal face e*, outside split.
    std::vector<std::size_t> all(table.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const FaceData& fd = table.face(faces::pick_not_contained(table, all));
    const FundamentalEdge& estar = fd.fe;
    long long f_r = 0, f_l = 0;
    for (NodeId z : t.nodes()) {
      if (faces::classify_node(fd, faces::node_data(t, z)) !=
          FaceSide::kOutside) {
        continue;
      }
      if (t.pi_left(z) > t.pi_left(estar.v)) {
        ++f_r;
      } else {
        ++f_l;
      }
    }
    if (3 * f_l <= n && 3 * f_r <= n) {
      out.push_back({t.path(estar.u, estar.v), estar.edge, 51});
    }
    // Lemma 8's heavy case: run the Phase-4 sweep from the root over the
    // root sweep faces (the virtual faces F_{r_T u'} with interior F_ℓ or
    // F_r), in both sweep directions.
    for (bool left : {true, false}) {
      NodeId pick = planar::kNoNode;
      for (NodeId z : t.nodes()) {
        if (z == t.root() || !t.children(z).empty()) continue;
        const long long w = faces::root_sweep_weight(unit, z, left);
        if (3 * w < n || 3 * w > 2 * n) continue;
        if (pick == planar::kNoNode ||
            (left ? t.pi_left(z) > t.pi_left(pick)
                  : t.pi_right(z) > t.pi_right(pick))) {
          pick = z;
        }
      }
      if (pick == planar::kNoNode) continue;
      // Hidden check for the root sweep: any real fundamental face whose
      // interior strictly contains `pick` blocks the virtual closing edge.
      std::vector<std::size_t> hiding;
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (table.classify(i, pick) == FaceSide::kInside) hiding.push_back(i);
      }
      if (hiding.empty()) {
        out.push_back({t.path(t.root(), pick), planar::kNoEdge, 52});
      } else {
        const FundamentalEdge& f =
            table.edge(faces::pick_not_contained(table, hiding));
        out.push_back({t.path(t.root(), f.v), planar::kNoEdge, 53});
        out.push_back({t.path(t.root(), f.u), planar::kNoEdge, 53});
      }
    }
    // Further fallbacks, balance-verified.
    out.push_back({t.path(estar.u, estar.v), estar.edge, 54});
    out.push_back({t.path(t.root(), estar.v), planar::kNoEdge, 55});
    out.push_back({t.path(t.root(), estar.u), planar::kNoEdge, 55});
    out.push_back({t.path(t.root(), unit.centroid()), planar::kNoEdge, 55});
  }
  return out;
}

/// Whether removing c's path balances part p under `weight` (unit weights
/// when empty). The distributed check is one components pass plus a size
/// aggregation; values are computed directly.
bool balances(const PartSet& ps, int p, const Candidate& c,
              const std::vector<long long>& weight) {
  return sub::balance_after_removal(*ps.g, ps.tree_of_part(p).nodes(), c.path,
                                    weight)
      .balanced();
}

/// The last resort (should be unreachable; counted in stats and asserted
/// absent by the test suite): the first balancing fundamental-edge path,
/// else the first balancing root→node path.
Candidate last_resort(const PartSet& ps, int p,
                      const std::vector<long long>& weight) {
  const RootedSpanningTree& t = ps.tree_of_part(p);
  for (EdgeId e : faces::real_fundamental_edges(t)) {
    const FundamentalEdge fe = faces::analyze_fundamental_edge(t, e);
    Candidate c{t.path(fe.u, fe.v), fe.edge, 99};
    if (balances(ps, p, c, weight)) return c;
  }
  for (NodeId v : t.nodes()) {
    Candidate c{t.path(t.root(), v), planar::kNoEdge, 99};
    if (balances(ps, p, c, weight)) return c;
  }
  PLANSEP_CHECK_MSG(false, "no balanced separator path exists at all");
  return {};
}

}  // namespace

void SeparatorStats::record(int phase) {
  ++parts;
  switch (phase) {
    case 2: ++phase_counts[0]; break;
    case 3: ++phase_counts[1]; break;
    case 33:
    case 43: ++phase_counts[2]; break;
    case 41: ++phase_counts[3]; break;
    case 45: ++phase_counts[4]; break;
    case 42: ++phase_counts[5]; break;
    case 51:
    case 52:
    case 53:
    case 54:
    case 55: ++phase_counts[6]; break;
    // Weighted-extension candidates (weighted centroid / sweeps / heavy
    // node) share the Phase-5 bucket; 99 alone is the last resort.
    case 61:
    case 62:
    case 63:
    case 64:
    case 65: ++phase_counts[6]; break;
    default: ++phase_counts[7]; break;
  }
}

void SeparatorResult::settle(int p, Candidate c) {
  PLANSEP_CHECK(!c.path.empty());
  PartSeparator& sep = parts[static_cast<std::size_t>(p)];
  for (NodeId v : c.path) marked[static_cast<std::size_t>(v)] = 1;
  sep.endpoint_a = c.path.front();
  sep.endpoint_b = c.path.back();
  sep.path = std::move(c.path);
  sep.closing_edge = c.closing;
  sep.phase = c.phase;
  stats.record(c.phase);
}

int SeparatorEngine::search(const PartSet& ps, const Proposer& propose,
                            const std::vector<long long>& weight,
                            SeparatorResult& out) {
  int most_tried = 0;
  for (int p = 0; p < ps.num_parts; ++p) {
    if (!ps.has_tree(p)) continue;
    std::vector<Candidate> cands = propose(p);
    const auto hit =
        std::find_if(cands.begin(), cands.end(), [&](const Candidate& c) {
          return balances(ps, p, c, weight);
        });
    const int tried = static_cast<int>(hit - cands.begin()) + 1;
    out.stats.candidates_tried += tried;
    if (tried == 1) ++out.stats.first_candidate_hits;
    out.settle(p, hit != cands.end() ? std::move(*hit)
                                     : last_resort(ps, p, weight));
    most_tried = std::max(most_tried, tried);
  }
  return most_tried;
}

long long SeparatorEngine::verification_aggregations(const PartSet& ps,
                                                     int rounds) {
  const long long log_n =
      1 + static_cast<long long>(
              std::ceil(std::log2(std::max(2, ps.g->num_nodes()))));
  return rounds * (log_n + 1);
}

SeparatorResult SeparatorEngine::compute(const PartSet& ps) {
  obs::Span span("separator/compute");
  SeparatorResult out;
  out.parts.resize(static_cast<std::size_t>(ps.num_parts));
  out.marked.assign(static_cast<std::size_t>(ps.g->num_nodes()), 0);

  // --- Cost model (phases shared across parts; see header). One
  // aggregation over the part partition costs the same for every logical
  // PA of a phase, so price it once and scale.
  const RoundCost unit = sub::aggregation_price(*engine_, ps);
  {
    PLANSEP_SPAN("separator/weights");
    // Weights (Lemma 12): endpoint-local exchanges after the orders exist.
    out.cost += shortcuts::local_exchange(2);
    // Phase 2: tree test + range + centroid broadcast (3). Phase 3: range
    // over ω, endpoint broadcast, mark-path (5). Phase 4: not-contains,
    // detect-face, augmentation broadcast, range, hidden, not-contained,
    // mark-path (15). Phase 5: not-contained, F_l/F_r sums, mark-path (8).
    out.cost += shortcuts::aggregations(unit, 3 + 5 + 15 + 8);
    out.cost += shortcuts::local_exchange(4);
  }

  // --- Candidate generation and verification; each verification round
  // is shared across parts.
  obs::Span verify_span("separator/verify");
  const int rounds = search(
      ps, [&](int p) { return candidates_for_part(ps, p); }, {}, out);
  out.cost +=
      shortcuts::aggregations(unit, verification_aggregations(ps, rounds));
  verify_span.note("candidates_tried", out.stats.candidates_tried);
  span.note("parts", ps.num_parts);
  span.note("rounds_charged", out.cost.charged);
  span.note("pa_calls", out.cost.pa_calls);
  return out;
}

WholeGraphSeparator separate_whole_graph(const planar::EmbeddedGraph& g,
                                         shortcuts::PartwiseEngine& engine,
                                         NodeId root) {
  const std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
  WholeGraphSeparator out;
  out.parts = sub::build_part_set(g, part, 1, engine, {root});
  out.result = SeparatorEngine(engine).compute(out.parts);
  out.cost = engine.setup_cost();
  out.cost += out.parts.cost;
  out.cost += out.result.cost;
  return out;
}

}  // namespace plansep::separator
