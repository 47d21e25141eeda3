#pragma once

// Planar graph generators with embeddings.
//
// Every generator returns an embedded planar graph; combinatorial
// constructions (stacked triangulations) build exact rotation systems, while
// geometric ones derive rotations from straight-line coordinates. Families
// span the diameter spectrum the experiments need: grids (D ≈ 2√n),
// stacked triangulations (D ≈ log n), outerplanar/cycles (D ≈ n/2) and
// trees (no fundamental edges — Phase 2 of the separator algorithm).

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "planar/embedded_graph.hpp"
#include "util/rng.hpp"

namespace plansep::planar {

struct GeneratedGraph {
  EmbeddedGraph graph;
  /// A dart on the outer-face walk, when the construction knows one
  /// (kNoDart for trees, whose unique face is the outer face).
  DartId outer_dart = kNoDart;
  /// A node incident to the outer face; a natural root choice.
  NodeId root_hint = 0;
  std::string name;
};

/// rows × cols grid; D = rows + cols − 2.
GeneratedGraph grid(int rows, int cols);

/// Grid with a random diagonal added to each cell with probability p.
GeneratedGraph grid_with_diagonals(int rows, int cols, double p, Rng& rng);

/// Annulus grid: `rings` concentric cycles of length `cols` plus radial
/// spokes (requires cols >= 3, rings >= 1).
GeneratedGraph cylinder(int rings, int cols);

/// Simple cycle on n >= 3 nodes.
GeneratedGraph cycle(int n);

/// Path on n >= 1 nodes.
GeneratedGraph path(int n);

/// Star: center 0 plus n−1 leaves.
GeneratedGraph star(int n);

/// Wheel: hub 0 plus a cycle of n−1 rim nodes (n >= 4).
GeneratedGraph wheel(int n);

/// Random tree: node i attaches to a uniform node < i.
GeneratedGraph random_tree(int n, Rng& rng);

/// Random *stacked* triangulation (Apollonian network): repeatedly insert a
/// vertex into a uniformly random internal triangular face. Maximal planar
/// on n >= 3 nodes; diameter typically O(log n).
GeneratedGraph stacked_triangulation(int n, Rng& rng);

/// Random planar graph: stacked triangulation with random non-bridge edges
/// deleted until `m` edges remain (clamped to feasible range), keeping the
/// graph connected and the embedding induced.
GeneratedGraph random_planar(int n, int m, Rng& rng);

/// Convex polygon on n nodes with `chords` random non-crossing chords drawn
/// from a random triangulation of the polygon.
GeneratedGraph outerplanar(int n, int chords, Rng& rng);

/// Named families, used by the test/bench sweeps.
enum class Family {
  kGrid,
  kGridDiagonals,
  kCylinder,
  kTriangulation,
  kRandomPlanar,
  kOuterplanar,
  kCycle,
  kRandomTree,
  kStar,
  kWheel,
};

const char* family_name(Family f);

/// Inverse of family_name (used by the proptest replay commands);
/// nullopt for unknown names.
std::optional<Family> family_from_name(std::string_view name);

/// Builds an instance of the family with about n nodes (exact for most
/// families) using the given seed.
GeneratedGraph make_instance(Family f, int n, std::uint64_t seed);

/// All families, for sweeps.
std::vector<Family> all_families();

}  // namespace plansep::planar
