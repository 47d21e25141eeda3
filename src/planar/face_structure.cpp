#include "planar/face_structure.hpp"

#include <limits>

#include "util/check.hpp"

namespace plansep::planar {

FaceStructure::FaceStructure(const EmbeddedGraph& g)
    : face_of_(static_cast<std::size_t>(g.num_darts()), kNoFace) {
  for (DartId start = 0; start < g.num_darts(); ++start) {
    if (face_of_[start] != kNoFace) continue;
    const FaceId f = static_cast<FaceId>(walks_.size());
    walks_.emplace_back();
    DartId d = start;
    do {
      PLANSEP_CHECK_MSG(face_of_[d] == kNoFace, "face tracing revisited dart");
      face_of_[d] = f;
      walks_.back().push_back(d);
      d = g.rot_next(EmbeddedGraph::rev(d));
    } while (d != start);
  }
}

int FaceStructure::euler_genus(const EmbeddedGraph& g) const {
  const int c = g.num_components();
  // For each component embedded in the sphere: V - E + F = 2. Isolated
  // vertices have no darts and hence no faces; treat each as contributing
  // V=1, E=0, F=1. Globally: F_total counts each component's faces, but
  // the traced faces only exist where darts exist.
  int isolated = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) == 0) ++isolated;
  }
  const int v = g.num_nodes() - isolated;
  const int e = g.num_edges();
  const int f = num_faces();
  const int comps = c - isolated;
  if (comps == 0) return 0;
  // Sum over components of (2 - 2*genus_i) = V - E + F  ==>
  // total_genus = (2*comps - (V - E + F)) / 2.
  const int two_genus = 2 * comps - (v - e + f);
  PLANSEP_CHECK_MSG(two_genus % 2 == 0, "inconsistent face trace");
  return two_genus / 2;
}

FaceId FaceStructure::outer_face(const EmbeddedGraph& g) const {
  PLANSEP_CHECK_MSG(g.has_coordinates(),
                    "outer_face requires a straight-line embedding");
  PLANSEP_CHECK_MSG(g.num_components() == 1,
                    "outer_face requires a connected graph");
  if (num_faces() == 1) return 0;
  const auto& pts = g.coordinates();
  FaceId best = kNoFace;
  double best_area = std::numeric_limits<double>::infinity();
  for (FaceId f = 0; f < num_faces(); ++f) {
    double area2 = 0;  // twice the signed area of the face walk
    for (DartId d : walks_[f]) {
      const Point& a = pts[static_cast<std::size_t>(g.tail(d))];
      const Point& b = pts[static_cast<std::size_t>(g.head(d))];
      area2 += a.x * b.y - b.x * a.y;
    }
    if (area2 < best_area) {
      best_area = area2;
      best = f;
    }
  }
  return best;
}

}  // namespace plansep::planar
