#pragma once

// Face triangulation by apex insertion.
//
// Several planar-graph algorithms (Lipton–Tarjan's cycle step, parts of
// Ghaffari–Parter) assume a triangulated input. Triangulating by adding
// chords can create parallel edges; the standard safe construction adds a
// fresh *apex* vertex inside every face of size > 3, connected to every
// corner of that face's walk — the result is simple, planar, and every
// face is a triangle. Apexes are flagged so algorithms can weight them 0
// or drop them from outputs.

#include "planar/embedded_graph.hpp"

namespace plansep::planar {

struct Triangulation {
  EmbeddedGraph graph;
  /// is_apex[v] for every node of `graph`; original ids are preserved as a
  /// prefix.
  std::vector<char> is_apex;
  int apexes = 0;
};

/// Triangulates every face of the (connected, embedded) graph by apex
/// insertion. Faces that are already triangles are left untouched.
/// Requires triangulable(g).
Triangulation triangulate_with_apexes(const EmbeddedGraph& g);

/// triangulate_with_apexes' precondition: g is connected and every face
/// walk is a simple cycle of at least 3 corners, i.e. g is 2-connected (a
/// repeated corner would force a parallel apex edge).
bool triangulable(const EmbeddedGraph& g);

}  // namespace plansep::planar
