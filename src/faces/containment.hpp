#pragma once

// Containment between fundamental faces, and the NOT-CONTAINED /
// NOT-CONTAINS selections (Lemmas 17 and 18).
//
// A real fundamental edge f is contained in F_e when the whole face F_f
// lies within F_e (V(F_f) ⊆ V(F_e)). Because a real edge cannot cross the
// border of F_e, containment reduces to: both endpoints of f lie in
// V(F_e), and at any border endpoint the dart of f opens into the inside
// arc (dart_points_inside). Phase 4 needs a maximal weight->2n/3 edge that
// contains no other such edge; Phase 5 needs an edge not contained in any
// other.

#include <span>

#include "faces/face_table.hpp"

namespace plansep::faces {

/// True iff the face of `inner` lies within the face of `outer` (the
/// payload of a real fundamental face of t), V(F_inner) ⊆ V(F_outer).
/// `inner` must be a real fundamental edge of t; an edge is not
/// considered contained in itself.
bool face_contains(const RootedSpanningTree& t, const FaceData& outer,
                   const FundamentalEdge& inner);

/// NOT-CONTAINED (Lemma 17): the index of an entry of `among` (indices
/// into `table`) whose face is not contained in any other listed face.
/// `among` must be non-empty.
std::size_t pick_not_contained(const FaceTable& table,
                               std::span<const std::size_t> among);

/// NOT-CONTAINS (Lemma 18): the index of an entry of `among` whose face
/// contains no other listed face.
std::size_t pick_not_contains(const FaceTable& table,
                              std::span<const std::size_t> among);

}  // namespace plansep::faces
