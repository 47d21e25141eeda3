// Unit and property tests for the planar substrate: rotation systems, face
// tracing, Euler validation, region classification and generators.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/fingerprint.hpp"
#include "planar/embedded_graph.hpp"
#include "planar/face_structure.hpp"
#include "planar/generators.hpp"
#include "planar/planarity.hpp"
#include "planar/region.hpp"
#include "util/rng.hpp"

namespace plansep::planar {
namespace {

TEST(EmbeddedGraph, TriangleBasics) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
  const DartId d01 = g.find_dart(0, 1);
  ASSERT_NE(d01, kNoDart);
  EXPECT_EQ(g.tail(d01), 0);
  EXPECT_EQ(g.head(d01), 1);
  EXPECT_EQ(g.head(EmbeddedGraph::rev(d01)), 0);
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 0 + 0));  // no self loop
}

TEST(EmbeddedGraph, RotNextWraps) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  const DartId d01 = g.find_dart(0, 1);
  const DartId d02 = g.find_dart(0, 2);
  EXPECT_EQ(g.rot_next(d01), d02);
  EXPECT_EQ(g.rot_next(d02), d01);
  EXPECT_EQ(g.rot_prev(d01), d02);
}

TEST(EmbeddedGraph, AddEdgePositions) {
  EmbeddedGraph g(4);
  g.add_edge_back(0, 1);
  g.add_edge_back(0, 2);
  const EdgeId e = g.add_edge(0, 3, 1, 0);
  EXPECT_EQ(g.position(g.dart_from(e, 0)), 1);
  auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1);
  EXPECT_EQ(nb[1], 3);
  EXPECT_EQ(nb[2], 2);
}

TEST(FaceStructure, TriangleHasTwoFaces) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  FaceStructure fs(g);
  EXPECT_EQ(fs.num_faces(), 2);
  EXPECT_EQ(fs.euler_genus(g), 0);
  // Each face walk visits 3 darts.
  EXPECT_EQ(fs.walk(0).size(), 3u);
  EXPECT_EQ(fs.walk(1).size(), 3u);
}

TEST(FaceStructure, TreeHasOneFace) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1}, {0, 2, 3}, {1}, {1}});
  FaceStructure fs(g);
  EXPECT_EQ(fs.num_faces(), 1);
  EXPECT_EQ(fs.euler_genus(g), 0);
  EXPECT_EQ(fs.walk(0).size(), 6u);  // each edge traversed twice
}

TEST(FaceStructure, K4RotationsCanHavePositiveGenus) {
  // K4 with a "bad" rotation system embeds on the torus, not the plane.
  EmbeddedGraph planar_k4 = EmbeddedGraph::from_rotations(
      {{1, 2, 3}, {2, 0, 3}, {0, 1, 3}, {0, 2, 1}});
  EXPECT_EQ(FaceStructure(planar_k4).euler_genus(planar_k4), 0);
  EmbeddedGraph toroidal_k4 = EmbeddedGraph::from_rotations(
      {{1, 2, 3}, {2, 0, 3}, {0, 1, 3}, {0, 1, 2}});
  EXPECT_GT(FaceStructure(toroidal_k4).euler_genus(toroidal_k4), 0);
}

TEST(FaceStructure, GridFaceCount) {
  const GeneratedGraph gg = grid(4, 5);
  FaceStructure fs(gg.graph);
  // 3x4 = 12 inner faces + outer.
  EXPECT_EQ(fs.num_faces(), 13);
  EXPECT_EQ(fs.euler_genus(gg.graph), 0);
  const FaceId outer = fs.outer_face(gg.graph);
  EXPECT_EQ(fs.walk(outer).size(), 2u * (4 + 5) - 4);
}

TEST(Region, GridUnitSquare) {
  // Classify the unit square (0,1,6,5) in a 5-wide grid; node ids r*5+c.
  const GeneratedGraph gg = grid(4, 5);
  const EmbeddedGraph& g = gg.graph;
  FaceStructure fs(g);
  const FaceId outer = fs.outer_face(g);
  const auto cycle = darts_of_node_cycle(g, {0, 1, 6, 5});
  const RegionClassification rc = classify_cycle_region(g, fs, cycle, outer);
  int inside = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rc.node_side[v] == Side::kInside) ++inside;
  }
  EXPECT_EQ(inside, 0);  // unit face has no interior nodes
  EXPECT_EQ(rc.node_side[0], Side::kOnCycle);
  EXPECT_EQ(rc.node_side[7], Side::kOutside);
}

TEST(Region, GridBigCycle) {
  // The outer boundary of the whole 4x5 grid: everything else is inside.
  const GeneratedGraph gg = grid(4, 5);
  const EmbeddedGraph& g = gg.graph;
  FaceStructure fs(g);
  const FaceId outer = fs.outer_face(g);
  std::vector<NodeId> boundary;
  for (int c = 0; c < 5; ++c) boundary.push_back(c);
  for (int r = 1; r < 4; ++r) boundary.push_back(r * 5 + 4);
  for (int c = 3; c >= 0; --c) boundary.push_back(3 * 5 + c);
  for (int r = 2; r >= 1; --r) boundary.push_back(r * 5);
  const auto cycle = darts_of_node_cycle(g, boundary);
  const RegionClassification rc = classify_cycle_region(g, fs, cycle, outer);
  int inside = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rc.node_side[v] == Side::kInside) ++inside;
  }
  EXPECT_EQ(inside, (4 - 2) * (5 - 2));
}

struct FamilyCase {
  Family family;
  int n;
};

class GeneratorProperty : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(GeneratorProperty, ValidPlanarEmbedding) {
  const auto& p = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedGraph gg = make_instance(p.family, p.n, seed);
    const EmbeddedGraph& g = gg.graph;
    EXPECT_GE(g.num_nodes(), 1);
    EXPECT_EQ(g.num_components(), 1) << family_name(p.family);
    EXPECT_TRUE(validate_embedding(g)) << family_name(p.family);
    // Planar edge bound.
    EXPECT_LE(g.num_edges(), std::max(1, 3 * g.num_nodes() - 6));
    if (gg.outer_dart != kNoDart) {
      EXPECT_GE(gg.outer_dart, 0);
      EXPECT_LT(gg.outer_dart, g.num_darts());
    }
    EXPECT_GE(gg.root_hint, 0);
    EXPECT_LT(gg.root_hint, g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorProperty,
    ::testing::Values(FamilyCase{Family::kGrid, 30},
                      FamilyCase{Family::kGridDiagonals, 30},
                      FamilyCase{Family::kCylinder, 30},
                      FamilyCase{Family::kTriangulation, 40},
                      FamilyCase{Family::kRandomPlanar, 40},
                      FamilyCase{Family::kOuterplanar, 30},
                      FamilyCase{Family::kCycle, 20},
                      FamilyCase{Family::kRandomTree, 25},
                      FamilyCase{Family::kStar, 15},
                      FamilyCase{Family::kWheel, 16}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      std::string s = family_name(info.param.family);
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

TEST(Generators, CoordinateFamiliesAreStraightLinePlanar) {
  Rng rng(7);
  EXPECT_TRUE(validate_straight_line(grid(5, 6).graph));
  EXPECT_TRUE(validate_straight_line(cylinder(3, 8).graph));
  EXPECT_TRUE(validate_straight_line(wheel(12).graph));
  EXPECT_TRUE(validate_straight_line(outerplanar(14, 5, rng).graph));
  EXPECT_TRUE(validate_straight_line(grid_with_diagonals(5, 5, 0.7, rng).graph));
}

TEST(Generators, TriangulationIsMaximalPlanar) {
  Rng rng(3);
  const GeneratedGraph gg = stacked_triangulation(25, rng);
  EXPECT_EQ(gg.graph.num_nodes(), 25);
  EXPECT_EQ(gg.graph.num_edges(), 3 * 25 - 6);
  FaceStructure fs(gg.graph);
  EXPECT_EQ(fs.euler_genus(gg.graph), 0);
  // All faces are triangles.
  for (FaceId f = 0; f < fs.num_faces(); ++f) {
    EXPECT_EQ(fs.walk(f).size(), 3u);
  }
  // The recorded outer dart lies on the initial triangle.
  ASSERT_NE(gg.outer_dart, kNoDart);
  EXPECT_EQ(fs.walk(fs.face_of(gg.outer_dart)).size(), 3u);
}

TEST(Generators, RandomPlanarHitsTargetEdgeCount) {
  Rng rng(11);
  const GeneratedGraph gg = random_planar(40, 60, rng);
  EXPECT_EQ(gg.graph.num_nodes(), 40);
  EXPECT_EQ(gg.graph.num_edges(), 60);
  EXPECT_EQ(gg.graph.num_components(), 1);
}

// random_planar deletes random non-bridges of a stacked triangulation.
// These fingerprints were taken from the generator that tested each
// deletion with a BFS; the face union-find must pick the same edges.
TEST(Generators, RandomPlanarInstancesArePinned) {
  struct Pin {
    int n;
    std::uint64_t seed;
    int edges;
    std::uint64_t fingerprint;
  };
  for (const Pin& pin : {Pin{10, 1, 15, 0x690945ff6ffc3798ULL},
                         Pin{100, 2, 150, 0x6f719a59d3c3c049ULL},
                         Pin{1000, 7, 1500, 0x818eed32a43c3a7bULL},
                         Pin{4000, 123456789, 6000, 0xdd95ba67dddbbae0ULL},
                         Pin{20000, 1, 30000, 0x8ccd66845aedddf7ULL}}) {
    const GeneratedGraph gg =
        make_instance(Family::kRandomPlanar, pin.n, pin.seed);
    EXPECT_EQ(core::topology_fingerprint(gg.graph), pin.fingerprint)
        << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(gg.graph.num_edges(), pin.edges);
    EXPECT_EQ(gg.graph.num_components(), 1);
    EXPECT_EQ(FaceStructure(gg.graph).euler_genus(gg.graph), 0);
  }
}

// The coordinate families sort each rotation by angle; these fingerprints
// were taken from the sort that recomputed both darts' angles in every
// comparison, so computing each dart's angle once must keep every rotation.
TEST(Generators, CoordinateInstancesArePinned) {
  struct Pin {
    Family family;
    int n;
    int edges;
    std::uint64_t fingerprint;
  };
  for (const Pin& pin :
       {Pin{Family::kGrid, 50, 84, 0xe189d498096747b2ULL},
        Pin{Family::kGrid, 2000, 3871, 0xd296c3dcff59a534ULL},
        Pin{Family::kGridDiagonals, 50, 101, 0xfca0744bf250b057ULL},
        Pin{Family::kGridDiagonals, 2000, 4798, 0x4f4d6de2f59d3278ULL},
        Pin{Family::kCylinder, 50, 91, 0x2dcb2014014ee189ULL},
        Pin{Family::kCylinder, 2000, 3915, 0x5b281382348bd765ULL},
        Pin{Family::kOuterplanar, 50, 62, 0xcdcf4373cfb1c066ULL},
        Pin{Family::kOuterplanar, 2000, 2500, 0x5f8c43eed2a1ea60ULL},
        Pin{Family::kWheel, 50, 98, 0x0eeec08028400ad6ULL},
        Pin{Family::kWheel, 2000, 3998, 0x10349dccffbb957eULL}}) {
    const GeneratedGraph gg = make_instance(pin.family, pin.n, 3);
    EXPECT_EQ(core::topology_fingerprint(gg.graph), pin.fingerprint)
        << family_name(pin.family) << " n=" << pin.n;
    EXPECT_EQ(gg.graph.num_edges(), pin.edges);
  }
}

TEST(Generators, DeterministicForFixedSeed) {
  const GeneratedGraph a = make_instance(Family::kTriangulation, 30, 42);
  const GeneratedGraph b = make_instance(Family::kTriangulation, 30, 42);
  EXPECT_EQ(a.graph.debug_string(), b.graph.debug_string());
}

}  // namespace
}  // namespace plansep::planar
