#pragma once

// Full augmentation of a fundamental face (§3.1.3, Definition 3, Remark 2).
//
// Given a real fundamental face F_e with e = uv and a node z strictly
// inside F_e, the full augmentation from u conceptually inserts the virtual
// edge u–z adjacent to e so that all of T_u ∩ F_e and all of T_z stay
// inside the new face F^ℓ_{uz}. The weight ω(F^ℓ_{uz}) is again given by
// Definition 2's closed forms (faces/weights.hpp), with the p-values
// adapted:
//   * p(z) = the weight of T_z less z (the whole subtree of z lies inside
//     F_e; n_T(z) − 1 under unit weights),
//   * p(u) = the inside children of u whose subtrees the sweep has passed.
// Like Definition 2, both weights below read their sums through
// tree::NodeWeights, so they count nodes under unit weights and sum node
// weights for the weighted separator.
// When z is not (T,F_e)-compatible with u (it is "hidden", Definition 4),
// the same arithmetic is still used by the search (the paper's notational
// abuse after Definition 4); only compatible nodes yield actual faces.

#include "faces/weights.hpp"

namespace plansep::faces {

/// ω(F^ℓ_{uz}) of the full augmentation from fd.fe.u to a node z strictly
/// inside F_e (fd's face). For compatible z this equals the region weight
/// of the canonical insertion (property-tested against FaceOracle).
long long augmented_weight(const NodeWeights& w, const FaceData& fd,
                           NodeId z);

/// Weight of the *root sweep face* of node x: the region bounded by the
/// tree path root..x plus a virtual closing edge inserted at the root's
/// stub, containing everything the sweep order (π_ℓ when left, π_r when
/// right) has passed. This is Lemma 8's reduction: the virtual face
/// F_{r_T u'} whose interior is the heavy outside region F_ℓ^e (resp.
/// F_r^e) is a face of this form, and Phase 5's heavy case runs the
/// Phase-4 search over these faces.
long long root_sweep_weight(const NodeWeights& w, NodeId x, bool left);

}  // namespace plansep::faces
