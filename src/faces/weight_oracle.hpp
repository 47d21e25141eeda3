#pragma once

// Brute-force oracle for fundamental faces (ground truth for Definition 2).
//
// The paper defines the real fundamental face F_e of a T-fundamental edge
// e = uv as the side of the Jordan curve (T-path(u,v) + e) away from the
// virtual root r0 (§4). This oracle materializes that definition on the
// *induced embedded graph* H = G̃[P] (members of T, rotations inherited
// from G, plus the virtual-root stub): the cycle's region is computed by a
// dual BFS from r0's face (planar/region.hpp).
//
// Virtual augmentation edges u–z (Definition 3, §3.1.3) are evaluated by
// inserting the edge into H at candidate rotation gaps; an insertion is
// planar iff the rotation system keeps Euler genus 0, and it satisfies
// Definition 3 iff additionally all of T_u ∩ F_e and T_z ∩ F_e end up in
// the new face and the new face stays within F_e. This yields brute-force
// deciders for (T,F_e)-compatibility and hence for "hidden" (Definition 4,
// Lemma 6), against which the distributed characterizations are tested.
//
// Lemmas 3 and 4 state what Definition 2's ω(F_e) counts:
//   * u not an ancestor of v:  |F̃_e| = |inside| + |T-path(LCA..v)|
//   * u an ancestor of v:      |F̊_e| = |inside|
// `lemma_weight` returns that quantity, or the same sets' node-weight sum;
// property tests assert the closed-form ω equals it on every fundamental
// edge of every instance.

#include <optional>
#include <vector>

#include "faces/fundamental.hpp"
#include "planar/face_structure.hpp"
#include "planar/region.hpp"

namespace plansep::faces {

class FaceOracle {
 public:
  explicit FaceOracle(const RootedSpanningTree& t);

  struct Region {
    std::vector<NodeId> border;  // tree path a..b, in order (G node ids)
    std::vector<char> inside;    // indexed by G node id; 1 = strictly inside
    int inside_count = 0;
    /// Faces of the underlying instance strictly inside the cycle, indexed
    /// by the instance's face ids. Only comparable between regions built on
    /// the same instance — i.e., between real faces (no edge insertion).
    std::vector<char> face_inside;
  };

  /// Region of the unique real fundamental face of e (§4).
  Region real_face(const FundamentalEdge& fe) const;

  /// Diagnostic counters for the insertion-gap scan (test support).
  struct ScanStats {
    int gaps = 0;
    int planar = 0;
    int within_face = 0;
    int satisfied = 0;
  };

  /// All distinct regions of valid insertions of the virtual edge u–z, for
  /// z strictly inside F_e and not adjacent to u (deduplicated by inside
  /// set). Every returned insertion is planar and satisfies Definition 3's
  /// containment conditions; empty when z is not (T,F_e)-compatible with
  /// u. Note Definition 3 as written admits several insertions with
  /// different interiors (e.g. degenerate routings through border
  /// corners); the algorithm's arithmetic (faces/augmentation.hpp) matches
  /// one of them, which is what the property tests assert.
  std::vector<Region> augmented_faces(const FundamentalEdge& fe, NodeId z,
                                      ScanStats* stats = nullptr) const;

  /// What Definition 2 must evaluate to for a face with endpoints a, b
  /// (π_ℓ(a) < π_ℓ(b)): |F̃| when a is not an ancestor of b, else |F̊|,
  /// with each node counted at weight[v] (at 1 when `weight` is empty).
  long long lemma_weight(NodeId a, NodeId b, const Region& r,
                         const std::vector<long long>& weight = {}) const;

  const RootedSpanningTree& tree() const { return *t_; }

 private:
  struct Instance {
    planar::EmbeddedGraph h;
    std::vector<NodeId> to_g;      // local id -> G id (r0 excluded)
    std::vector<NodeId> to_local;  // G id -> local id (-1 outside)
    NodeId r0 = planar::kNoNode;   // local id of the virtual root
  };

  /// Builds G̃[members] with the stub, optionally inserting edge a–b at the
  /// given gap indices of the member rotations (gap measured in the local
  /// rotation lists, which include the stub at the root). gap_* == -1 means
  /// "no extra edge".
  Instance build(NodeId a, NodeId b, int gap_a, int gap_b) const;

  /// Classifies the cycle path(a..b)+closing edge inside `inst`; the
  /// closing edge must exist in inst (real or inserted).
  Region classify(const Instance& inst, NodeId a, NodeId b) const;

  const RootedSpanningTree* t_;
};

}  // namespace plansep::faces
