#include "baselines/randomized_separator.hpp"

#include <algorithm>
#include <cmath>

#include "faces/membership.hpp"
#include "faces/weights.hpp"
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
  std::vector<std::int64_t> zeros(static_cast<std::size_t>(ps.g->num_nodes()),
                                  0);
  auto pa_unit = engine_->aggregate(ps.part, zeros, shortcuts::AggOp::kMax);
  auto charge_pa = [&](long long k) {
    shortcuts::RoundCost c = pa_unit.cost;
    c.measured *= k;
    c.charged *= k;
    c.pa_calls = k;
    res.cost += c;
  };

  std::vector<char> unresolved(static_cast<std::size_t>(ps.num_parts), 1);
  for (int attempt = 1; attempt <= max_attempts_; ++attempt) {
    bool any_unresolved = false;
    for (char u : unresolved) any_unresolved |= (u != 0);
    if (!any_unresolved) break;
    out.attempts = attempt;

    // Fresh public sample.
    std::vector<char> sampled(static_cast<std::size_t>(ps.g->num_nodes()), 0);
    for (NodeId v = 0; v < ps.g->num_nodes(); ++v) {
      sampled[static_cast<std::size_t>(v)] = rng.next_bool(sample_rate_);
    }
    charge_pa(3);  // sample announcement + estimate aggregation + range

    for (int p = 0; p < ps.num_parts; ++p) {
      if (!unresolved[static_cast<std::size_t>(p)]) continue;
      if (!ps.trees[static_cast<std::size_t>(p)]) continue;
      const RootedSpanningTree& t = ps.tree_of_part(p);
      const long long n = t.size();
      std::vector<NodeId> path;
      planar::EdgeId closing = planar::kNoEdge;

      if (n <= 3) {
        path = {t.root()};
      } else {
        const auto fund = faces::real_fundamental_edges(t);
        if (fund.empty()) {
          path = t.path(t.root(), t.centroid());
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
            path = t.path(best_fe.u, best_fe.v);
            closing = best_fe.edge;
          }
        }
      }
      charge_pa(2);  // candidate broadcast + verification sizes
      if (!path.empty() &&
          sub::balance_after_removal(*ps.g, t.nodes(), path).balanced()) {
        auto& sep = res.parts[static_cast<std::size_t>(p)];
        sep.path = path;
        sep.endpoint_a = path.front();
        sep.endpoint_b = path.back();
        sep.closing_edge = closing;
        sep.phase = 3;
        res.stats.record(3);
        for (NodeId v : path) res.marked[static_cast<std::size_t>(v)] = 1;
        unresolved[static_cast<std::size_t>(p)] = 0;
      } else if (attempt == 1) {
        ++out.parts_needing_retry;
      }
    }
  }

  // Deterministic fallback for anything sampling could not resolve (e.g.
  // instances whose separator needs the augmentation machinery, which the
  // estimate-only search cannot reach).
  bool any_unresolved = false;
  for (char u : unresolved) any_unresolved |= (u != 0);
  if (any_unresolved) {
    separator::SeparatorEngine det(*engine_);
    separator::SeparatorResult fallback = det.compute(ps);
    res.cost += fallback.cost;
    for (int p = 0; p < ps.num_parts; ++p) {
      if (!unresolved[static_cast<std::size_t>(p)]) continue;
      ++out.deterministic_fallbacks;
      res.parts[static_cast<std::size_t>(p)] =
          fallback.parts[static_cast<std::size_t>(p)];
      for (NodeId v : res.parts[static_cast<std::size_t>(p)].path) {
        res.marked[static_cast<std::size_t>(v)] = 1;
      }
      res.stats.record(res.parts[static_cast<std::size_t>(p)].phase);
    }
  }
  return out;
}

}  // namespace plansep::baselines
