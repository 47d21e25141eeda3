#include "baselines/randomized_separator.hpp"

#include <algorithm>
#include <cmath>

#include "faces/membership.hpp"
#include "subroutines/components.hpp"
#include "util/check.hpp"

namespace plansep::baselines {

namespace {

using faces::FundamentalEdge;
using planar::NodeId;
using sub::PartSet;
using tree::RootedSpanningTree;

}  // namespace

RandomizedSeparatorResult RandomizedSeparatorEngine::compute(
    const PartSet& ps, Rng& rng) {
  RandomizedSeparatorResult out;
  auto& res = out.result;
  res.parts.resize(static_cast<std::size_t>(ps.num_parts));
  res.marked.assign(static_cast<std::size_t>(ps.g->num_nodes()), 0);

  // Cost model: per attempt, one sampling broadcast plus the estimate
  // aggregation and the verification pass — all Õ(D).
  const shortcuts::RoundCost unit = sub::aggregation_price(*engine_, ps);

  // Every part with a tree (parts without nodes have nothing to separate)
  // stays unresolved until a candidate settles it.
  std::vector<char> unresolved;
  for (int p = 0; p < ps.num_parts; ++p) unresolved.push_back(ps.has_tree(p));
  const auto any_unresolved = [&] {
    return std::count(unresolved.begin(), unresolved.end(), 1) > 0;
  };
  for (int attempt = 1; attempt <= max_attempts_ && any_unresolved();
       ++attempt) {
    out.attempts = attempt;

    // Fresh public sample.
    std::vector<char> sampled(static_cast<std::size_t>(ps.g->num_nodes()), 0);
    for (NodeId v = 0; v < ps.g->num_nodes(); ++v) {
      sampled[static_cast<std::size_t>(v)] = rng.next_bool(sample_rate_);
    }
    res.cost += shortcuts::aggregations(unit, 3);  // sample, estimates, range

    for (int p = 0; p < ps.num_parts; ++p) {
      if (!unresolved[static_cast<std::size_t>(p)]) continue;
      const RootedSpanningTree& t = ps.tree_of_part(p);
      const long long n = t.size();
      separator::Candidate cand;
      cand.phase = 3;

      if (n <= 3) {
        cand.path = {t.root()};
      } else {
        const auto fund = faces::real_fundamental_edges(t);
        if (fund.empty()) {
          cand.path = t.path(t.root(), tree::NodeWeights(t).centroid());
        } else {
          // Estimated weights; pick the estimate closest to n/2.
          long long best_dist = std::numeric_limits<long long>::max();
          FundamentalEdge best_fe;
          for (planar::EdgeId e : fund) {
            const FundamentalEdge fe = faces::analyze_fundamental_edge(t, e);
            const faces::FaceData fd = faces::face_data(t, fe);
            long long hits = 0;
            for (NodeId z : t.nodes()) {
              if (!sampled[static_cast<std::size_t>(z)]) continue;
              if (faces::classify_node(fd, faces::node_data(t, z)) !=
                  faces::FaceSide::kOutside) {
                ++hits;
              }
            }
            const long long est = sample_rate_ > 0
                                      ? static_cast<long long>(
                                            std::llround(hits / sample_rate_))
                                      : 0;
            const long long dist = std::llabs(2 * est - n);
            if (3 * est >= n && 3 * est <= 2 * n && dist < best_dist) {
              best_dist = dist;
              best_fe = fe;
            }
          }
          if (best_dist != std::numeric_limits<long long>::max()) {
            cand.path = t.path(best_fe.u, best_fe.v);
            cand.closing = best_fe.edge;
          }
        }
      }
      res.cost += shortcuts::aggregations(unit, 2);  // broadcast, verify sizes
      if (!cand.path.empty() &&
          sub::balance_after_removal(*ps.g, t.nodes(), cand.path).balanced()) {
        res.settle(p, std::move(cand));
        unresolved[static_cast<std::size_t>(p)] = 0;
      } else if (attempt == 1) {
        ++out.parts_needing_retry;
      }
    }
  }

  // Deterministic fallback for anything sampling could not resolve (e.g.
  // instances whose separator needs the augmentation machinery, which the
  // estimate-only search cannot reach).
  if (any_unresolved()) {
    separator::SeparatorResult fallback =
        separator::SeparatorEngine(*engine_).compute(ps);
    res.cost += fallback.cost;
    for (int p = 0; p < ps.num_parts; ++p) {
      if (!unresolved[static_cast<std::size_t>(p)]) continue;
      ++out.deterministic_fallbacks;
      separator::PartSeparator& sep =
          fallback.parts[static_cast<std::size_t>(p)];
      res.settle(p, {std::move(sep.path), sep.closing_edge, sep.phase});
    }
  }
  return out;
}

}  // namespace plansep::baselines
