#include "faces/face_table.hpp"

#include "faces/weights.hpp"

namespace plansep::faces {

FaceTable::FaceTable(const RootedSpanningTree& t) : t_(&t) {
  const NodeWeights unit(t);
  const auto edges = real_fundamental_edges(t);
  faces_.reserve(edges.size());
  weight_.reserve(edges.size());
  for (EdgeId e : edges) {
    faces_.push_back(face_data(t, analyze_fundamental_edge(t, e)));
    weight_.push_back(face_weight(unit, faces_.back()));
  }
}

}  // namespace plansep::faces
