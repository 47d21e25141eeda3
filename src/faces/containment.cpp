#include "faces/containment.hpp"

#include <limits>

#include "faces/membership.hpp"
#include "faces/weights.hpp"
#include "util/check.hpp"

namespace plansep::faces {

bool face_contains(const RootedSpanningTree& t, const FundamentalEdge& outer,
                   const FundamentalEdge& inner) {
  if (outer.edge == inner.edge) return false;
  const FaceData fd = face_data(t, outer);
  const auto side_u = classify_node(fd, node_data(t, inner.u));
  const auto side_v = classify_node(fd, node_data(t, inner.v));
  if (side_u == FaceSide::kOutside || side_v == FaceSide::kOutside) {
    return false;
  }
  // A real edge cannot cross the border of F_outer, so it suffices that the
  // edge opens towards the inside at some border endpoint; if both
  // endpoints are strictly inside the edge is trivially contained.
  const auto& g = t.graph();
  if (side_u == FaceSide::kBorder) {
    return dart_points_inside(t, outer, g.dart_from(inner.edge, inner.u));
  }
  if (side_v == FaceSide::kBorder) {
    return dart_points_inside(t, outer, g.dart_from(inner.edge, inner.v));
  }
  return true;  // both strictly inside
}

namespace {

/// Climb the containment order: starting from a seed likely to be extreme
/// (by ω-monotonicity — contained faces never weigh more, §4.1), verify
/// against all edges and climb to any counterexample. Containment is a
/// partial order on faces, so each climb strictly increases (decreases)
/// the face and the loop terminates; in practice the seed survives the
/// first verification (Lemma 17's one-round refinement).
FundamentalEdge climb(const RootedSpanningTree& t,
                      const std::vector<FundamentalEdge>& edges,
                      std::size_t seed, bool outward) {
  std::size_t cur = seed;
  for (std::size_t steps = 0; steps <= edges.size(); ++steps) {
    bool moved = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i == cur) continue;
      const bool bad = outward ? face_contains(t, edges[i], edges[cur])
                               : face_contains(t, edges[cur], edges[i]);
      if (bad) {
        cur = i;
        moved = true;
        break;
      }
    }
    if (!moved) return edges[cur];
  }
  PLANSEP_CHECK_MSG(false, "containment order has a cycle");
  return edges[seed];
}

}  // namespace

FundamentalEdge pick_not_contained(const RootedSpanningTree& t,
                                   const std::vector<FundamentalEdge>& edges) {
  PLANSEP_CHECK(!edges.empty());
  // Seed with the maximum-weight face: a face contained in another never
  // weighs more, so the max-ω face can only be contained in (rare) peers.
  const NodeWeights unit(t);
  std::size_t seed = 0;
  long long best = std::numeric_limits<long long>::min();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const long long w = face_weight(unit, edges[i]);
    if (w > best) {
      best = w;
      seed = i;
    }
  }
  return climb(t, edges, seed, /*outward=*/true);
}

FundamentalEdge pick_not_contains(const RootedSpanningTree& t,
                                  const std::vector<FundamentalEdge>& edges) {
  PLANSEP_CHECK(!edges.empty());
  const NodeWeights unit(t);
  std::size_t seed = 0;
  long long best = std::numeric_limits<long long>::max();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const long long w = face_weight(unit, edges[i]);
    if (w < best) {
      best = w;
      seed = i;
    }
  }
  return climb(t, edges, seed, /*outward=*/false);
}

}  // namespace plansep::faces
