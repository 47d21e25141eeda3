#pragma once

// Hidden nodes (Definition 4) and the compatibility characterization
// (Lemma 6).
//
// A node z strictly inside F_e (e = uv) is *hidden* when some real
// fundamental edge f = z1z2 contained in F_e has z inside F_f and either
// (1) u is not an endpoint of f, or (2) u is an endpoint but f cuts off
// part of T_u ∩ F_e (V(T_u) ∩ V(F_e) ⊄ V(F_f)). Lemma 6: a leaf z of T is
// (T,F_e)-compatible with u iff it is not hidden.
//
// `hides` is the per-edge local test of the HIDDEN-PROBLEM (Lemma 16): the
// endpoints of f decide it from their own data plus the broadcast data of
// e and z.

#include "faces/face_table.hpp"

namespace plansep::faces {

/// True iff the real fundamental face f hides z in the face e
/// (Definition 4); both are payloads of real fundamental faces of t.
bool hides(const RootedSpanningTree& t, const FaceData& e, const FaceData& f,
           NodeId z);

/// The entries of `table` (indices, in table order) hiding z in the face
/// e, a real fundamental face of the table's tree (a scan over the table;
/// the distributed algorithm evaluates `hides` at each edge in parallel).
std::vector<std::size_t> hiding_edges(const FaceTable& table,
                                      const FaceData& e, NodeId z);

}  // namespace plansep::faces
