#include "planar/triangulate.hpp"

#include <algorithm>

#include "planar/face_structure.hpp"
#include "util/check.hpp"

namespace plansep::planar {

Triangulation triangulate_with_apexes(const EmbeddedGraph& g) {
  const FaceStructure fs(g);
  Triangulation out;
  out.graph = g;
  out.is_apex.assign(static_cast<std::size_t>(g.num_nodes()), 0);

  for (FaceId f = 0; f < fs.num_faces(); ++f) {
    const auto& walk = fs.walk(f);
    if (walk.size() <= 3) continue;
    // Simple face walks only (2-connected input): a repeated corner would
    // force a parallel apex edge.
    {
      std::vector<NodeId> corners;
      for (DartId d : walk) corners.push_back(g.head(d));
      std::sort(corners.begin(), corners.end());
      PLANSEP_CHECK_MSG(
          std::adjacent_find(corners.begin(), corners.end()) == corners.end(),
          "triangulate_with_apexes requires 2-connected input");
    }
    const NodeId apex = out.graph.add_node();
    out.is_apex.push_back(1);
    ++out.apexes;
    // Connect the apex to every corner of the face walk, inserting each
    // dart at the corner's position: the corner swept after dart d sits at
    // head(d), between rev(d) and rot_next(rev(d)). Positions are taken
    // live because earlier insertions at the same vertex shift them; walk
    // corners are processed in walk order so each new dart lands between
    // the previous insertion and the next walk edge, preserving planarity.
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const DartId d = walk[i];
      const NodeId corner = out.graph.head(d);
      // rot_next of rev(d) in the *current* graph (rev(d) keeps its id:
      // dart ids are stable under add_edge).
      const DartId leaving = out.graph.rot_next(EmbeddedGraph::rev(d));
      const int pos = out.graph.position(leaving);
      out.graph.add_edge(apex, corner, 0, pos);
    }
  }
  const FaceStructure after(out.graph);
  PLANSEP_CHECK_MSG(after.euler_genus(out.graph) == 0,
                    "triangulation broke planarity");
  for (FaceId f = 0; f < after.num_faces(); ++f) {
    PLANSEP_CHECK_MSG(after.walk(f).size() == 3, "face left untriangulated");
  }
  return out;
}

bool triangulable(const EmbeddedGraph& g) {
  if (g.num_components() != 1) return false;
  const FaceStructure fs(g);
  for (FaceId f = 0; f < fs.num_faces(); ++f) {
    std::vector<NodeId> corners;
    for (const DartId d : fs.walk(f)) corners.push_back(g.head(d));
    std::sort(corners.begin(), corners.end());
    if (corners.size() < 3 ||
        std::adjacent_find(corners.begin(), corners.end()) != corners.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace plansep::planar
