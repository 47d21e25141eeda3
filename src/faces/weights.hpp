#pragma once

// Definition 2: the deterministic weight ω(F_e) of a fundamental face.
//
// The weight is computable from data local to the endpoints of e: their
// DFS-order positions π_ℓ/π_r, depths, subtree sizes, and the rotation
// offsets of their incident darts (the p-values below). This is the paper's
// first key technical contribution — a deterministic replacement for the
// randomized face-weight estimation of Ghaffari–Parter.
//
// Every formula here reads its sums through tree::NodeWeights, so it
// counts nodes under unit weights and sums node weights otherwise (the
// weighted separator's extension): each count of Definition 2 is a sum of
// subtree, π-interval or root-path weights. One implementation serves both
// separator engines, property-tested against the region oracle under unit,
// all-ones and random weights.
//
// Convention note. Definition 1 labels an ancestor edge E-left when
// t_u(v) < t_u(z), and Definition 2 pairs "left" with π_ℓ; however, the
// proof of Lemma 4 derives the π_ℓ formula under t_u(v) > t_u(z). The two
// statements cannot both hold; we resolve the discrepancy empirically: the
// pairing implemented here (t_u(v) > t_u(z) ⟹ π_ℓ) is the one under which
// ω(F_e) equals the region count of Lemmas 3/4 on every fundamental edge of
// every test instance (see tests/faces_weights_test.cpp).

#include "faces/membership.hpp"

namespace plansep::faces {

using tree::NodeWeights;

/// Whether Definition 2 case 2 uses the LEFT order π_ℓ for this
/// ancestor-type edge (see convention note above).
bool uses_left_order(const FundamentalEdge& fe);

/// Definition 2 case 2's sweep term for an ancestor z of x: the weight at
/// positions π(z)..π(x) − 1 of π_ℓ (left) or π_r, less the tree path
/// z..parent(x) — (π(x) − π(z)) − (depth(x) − depth(z)) under unit weights.
long long ancestor_sweep(const NodeWeights& w, NodeId z, NodeId x, bool left);

/// ω(F_e) per Definition 2, from the face's payload (faces/membership.hpp).
/// The p-values p_{F_e}(u) and p_{F_e}(v) — the weight of the proper
/// descendants of u and v lying inside F_e, locally computable by each
/// endpoint from its children's subtree weights — are the weights of the
/// payload's inside intervals. For u not an ancestor of v this equals the
/// weight of F̃_e (Lemma 3); for an ancestor edge that of F̊_e (Lemma 4).
long long face_weight(const NodeWeights& w, const FaceData& fd);

}  // namespace plansep::faces
