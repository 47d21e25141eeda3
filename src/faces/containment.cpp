#include "faces/containment.hpp"

#include "util/check.hpp"

namespace plansep::faces {

bool face_contains(const RootedSpanningTree& t, const FaceData& outer,
                   const FundamentalEdge& inner) {
  if (outer.fe.edge == inner.edge) return false;
  const auto side_u = classify_node(outer, node_data(t, inner.u));
  const auto side_v = classify_node(outer, node_data(t, inner.v));
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
/// against all listed edges and climb to any counterexample. Containment
/// is a partial order on faces, so each climb strictly increases
/// (decreases) the face and the loop terminates; in practice the seed
/// survives the first verification (Lemma 17's one-round refinement).
/// The seed is the first heaviest (outward) or lightest entry.
std::size_t climb(const FaceTable& table, std::span<const std::size_t> among,
                  bool outward) {
  PLANSEP_CHECK(!among.empty());
  std::size_t cur = 0;
  for (std::size_t i = 1; i < among.size(); ++i) {
    const long long w = table.weight(among[i]);
    const long long best = table.weight(among[cur]);
    if (outward ? w > best : w < best) cur = i;
  }
  const std::size_t seed = cur;
  const RootedSpanningTree& t = table.tree();
  for (std::size_t steps = 0; steps <= among.size(); ++steps) {
    bool moved = false;
    for (std::size_t i = 0; i < among.size(); ++i) {
      if (i == cur) continue;
      const bool bad =
          outward
              ? face_contains(t, table.face(among[i]), table.edge(among[cur]))
              : face_contains(t, table.face(among[cur]), table.edge(among[i]));
      if (bad) {
        cur = i;
        moved = true;
        break;
      }
    }
    if (!moved) return among[cur];
  }
  PLANSEP_CHECK_MSG(false, "containment order has a cycle");
  return among[seed];
}

}  // namespace

std::size_t pick_not_contained(const FaceTable& table,
                               std::span<const std::size_t> among) {
  // Seed with the maximum-weight face: a face contained in another never
  // weighs more, so the max-ω face can only be contained in (rare) peers.
  return climb(table, among, /*outward=*/true);
}

std::size_t pick_not_contains(const FaceTable& table,
                              std::span<const std::size_t> among) {
  return climb(table, among, /*outward=*/false);
}

}  // namespace plansep::faces
