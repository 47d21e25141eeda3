#pragma once

// Face tracing over a rotation system.
//
// Faces are the orbits of the permutation  d ↦ rot_next(rev(d)) : each dart
// belongs to exactly one face walk. For a rotation system that corresponds
// to a plane embedding, Euler's formula V − E + F = 1 + C holds (C = number
// of connected components, all sharing the outer face); `euler_genus() == 0`
// certifies planarity of the rotation system.

#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::planar {

using FaceId = std::int32_t;
inline constexpr FaceId kNoFace = -1;

class FaceStructure {
 public:
  explicit FaceStructure(const EmbeddedGraph& g);

  int num_faces() const { return static_cast<int>(walks_.size()); }

  /// Face containing dart d (the face traced through d).
  FaceId face_of(DartId d) const { return face_of_[d]; }

  /// The closed dart walk of face f, in tracing order.
  const std::vector<DartId>& walk(FaceId f) const { return walks_[f]; }

  /// Euler genus of the rotation system: 0 iff it is a plane embedding.
  /// Computed as (2·C − V + E − F) / 2 over the whole graph.
  int euler_genus(const EmbeddedGraph& g) const;

  /// The outer face of a straight-line embedding (requires coordinates):
  /// the unique face whose walk has negative signed area. For graphs with
  /// no cycle (forests) there is a single face, which is returned.
  FaceId outer_face(const EmbeddedGraph& g) const;

 private:
  std::vector<FaceId> face_of_;
  std::vector<std::vector<DartId>> walks_;
};

}  // namespace plansep::planar
