#include "planar/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "planar/face_structure.hpp"
#include "util/check.hpp"

namespace plansep::planar {

namespace {

constexpr double kPi = 3.14159265358979323846;

GeneratedGraph from_coords(std::string name, std::vector<Point> pts,
                           std::vector<std::pair<NodeId, NodeId>> edges,
                           NodeId root_hint) {
  GeneratedGraph out;
  out.graph = EmbeddedGraph::from_coordinates(pts, edges);
  out.root_hint = root_hint;
  out.name = std::move(name);
  return out;
}

}  // namespace

GeneratedGraph grid(int rows, int cols) {
  PLANSEP_CHECK(rows >= 1 && cols >= 1);
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(rows) * cols);
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto id = [&](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pts.push_back({static_cast<double>(c), static_cast<double>(-r)});
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return from_coords("grid", std::move(pts), std::move(edges), 0);
}

GeneratedGraph grid_with_diagonals(int rows, int cols, double p, Rng& rng) {
  PLANSEP_CHECK(rows >= 1 && cols >= 1);
  std::vector<Point> pts;
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto id = [&](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pts.push_back({static_cast<double>(c), static_cast<double>(-r)});
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
      if (c + 1 < cols && r + 1 < rows && rng.next_bool(p)) {
        if (rng.next_bool()) {
          edges.emplace_back(id(r, c), id(r + 1, c + 1));
        } else {
          edges.emplace_back(id(r, c + 1), id(r + 1, c));
        }
      }
    }
  }
  return from_coords("grid+diag", std::move(pts), std::move(edges), 0);
}

GeneratedGraph cylinder(int rings, int cols) {
  PLANSEP_CHECK(rings >= 1 && cols >= 3);
  std::vector<Point> pts;
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto id = [&](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rings; ++r) {
    const double radius = 1.0 + r;
    for (int c = 0; c < cols; ++c) {
      const double a = 2 * kPi * c / cols;
      pts.push_back({radius * std::cos(a), radius * std::sin(a)});
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      if (r + 1 < rings) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  // Outer-most ring nodes touch the outer face.
  return from_coords("cylinder", std::move(pts), std::move(edges),
                     id(rings - 1, 0));
}

GeneratedGraph cycle(int n) {
  PLANSEP_CHECK(n >= 3);
  std::vector<Point> pts;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < n; ++i) {
    const double a = 2 * kPi * i / n;
    pts.push_back({std::cos(a), std::sin(a)});
    edges.emplace_back(i, (i + 1) % n);
  }
  return from_coords("cycle", std::move(pts), std::move(edges), 0);
}

GeneratedGraph path(int n) {
  PLANSEP_CHECK(n >= 1);
  std::vector<Point> pts;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i), 0.0});
    if (i + 1 < n) edges.emplace_back(i, i + 1);
  }
  return from_coords("path", std::move(pts), std::move(edges), 0);
}

GeneratedGraph star(int n) {
  PLANSEP_CHECK(n >= 2);
  std::vector<Point> pts{{0.0, 0.0}};
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 1; i < n; ++i) {
    const double a = 2 * kPi * i / (n - 1);
    pts.push_back({std::cos(a), std::sin(a)});
    edges.emplace_back(0, i);
  }
  return from_coords("star", std::move(pts), std::move(edges), 1);
}

GeneratedGraph wheel(int n) {
  PLANSEP_CHECK(n >= 4);
  const int rim = n - 1;
  std::vector<Point> pts{{0.0, 0.0}};
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < rim; ++i) {
    const double a = 2 * kPi * i / rim;
    pts.push_back({std::cos(a), std::sin(a)});
    edges.emplace_back(0, 1 + i);
    edges.emplace_back(1 + i, 1 + (i + 1) % rim);
  }
  return from_coords("wheel", std::move(pts), std::move(edges), 1);
}

GeneratedGraph random_tree(int n, Rng& rng) {
  PLANSEP_CHECK(n >= 1);
  std::vector<std::vector<NodeId>> rot(static_cast<std::size_t>(n));
  for (NodeId v = 1; v < n; ++v) {
    const NodeId p = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(v)));
    rot[static_cast<std::size_t>(v)].push_back(p);
    rot[static_cast<std::size_t>(p)].push_back(v);
  }
  GeneratedGraph out;
  out.graph = EmbeddedGraph::from_rotations(rot);
  out.root_hint = 0;
  out.name = "random_tree";
  return out;
}

GeneratedGraph stacked_triangulation(int n, Rng& rng) {
  PLANSEP_CHECK(n >= 3);
  // Initial triangle with two faces; we stack into the internal one.
  // Rotations: 0:[1,2] 1:[2,0] 2:[0,1]; internal face (0→1, 1→2, 2→0).
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  std::vector<Point> pts{{0.0, 0.0}, {4.0, 0.0}, {2.0, 3.0}};
  // Internal faces as dart triples (walk order). Edge ids: 0={0,1}, 1={0,2},
  // 2={1,2}. Dart u→v for edge e is 2e if u was the first endpoint.
  struct Tri {
    DartId ab, bc, ca;  // walk darts a→b, b→c, c→a
  };
  const DartId d01 = g.find_dart(0, 1);
  const DartId d12 = g.find_dart(1, 2);
  const DartId d20 = g.find_dart(2, 0);
  std::vector<Tri> faces{{d01, d12, d20}};
  while (g.num_nodes() < n) {
    const std::size_t fi = static_cast<std::size_t>(rng.next_below(faces.size()));
    const Tri t = faces[fi];
    const NodeId a = g.tail(t.ab);
    const NodeId b = g.tail(t.bc);
    const NodeId c = g.tail(t.ca);
    const NodeId x = g.add_node();
    pts.push_back({(pts[a].x + pts[b].x + pts[c].x) / 3,
                   (pts[a].y + pts[b].y + pts[c].y) / 3});
    // Insert x→a (corner at a between a→c and a→b), x→c, x→b so that the
    // face tracing yields the three sub-triangles (see derivation in tests).
    const EdgeId exa = g.add_edge(x, a, 0, g.position(t.ab));
    const EdgeId exc = g.add_edge(x, c, 1, g.position(t.ca));
    const EdgeId exb = g.add_edge(x, b, 2, g.position(t.bc));
    const DartId xa = 2 * exa, ax = 2 * exa + 1;
    const DartId xc = 2 * exc, cx = 2 * exc + 1;
    const DartId xb = 2 * exb, bx = 2 * exb + 1;
    faces[fi] = Tri{t.ab, bx, xa};
    faces.push_back(Tri{t.bc, cx, xb});
    faces.push_back(Tri{t.ca, ax, xc});
  }
  GeneratedGraph out;
  out.graph = std::move(g);
  out.graph.set_coordinates(std::move(pts));
  // The outer face is the reverse triangle (1→0, 0→2, 2→1).
  out.outer_dart = out.graph.find_dart(1, 0);
  out.root_hint = 0;
  out.name = "triangulation";
  return out;
}

GeneratedGraph random_planar(int n, int m, Rng& rng) {
  PLANSEP_CHECK(n >= 3);
  GeneratedGraph tri = stacked_triangulation(n, rng);
  const EmbeddedGraph& g = tri.graph;
  const int max_m = g.num_edges();
  m = std::clamp(m, n - 1, max_m);
  std::vector<char> alive(static_cast<std::size_t>(max_m), 1);
  std::vector<EdgeId> order(static_cast<std::size_t>(max_m));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  // An edge of a connected plane graph is a bridge exactly when one face
  // lies on both of its sides, and deleting a non-bridge merges the two
  // faces it separates. So a union-find over the triangulation's faces
  // tracks the faces of the alive graph, and each bridge test is two finds.
  const FaceStructure faces(g);
  std::vector<FaceId> face_root(static_cast<std::size_t>(faces.num_faces()));
  std::iota(face_root.begin(), face_root.end(), 0);
  const auto find = [&](FaceId f) {
    while (face_root[f] != f) f = face_root[f] = face_root[face_root[f]];
    return f;
  };
  int remaining = max_m;
  for (EdgeId e : order) {
    if (remaining <= m) break;
    const FaceId a = find(faces.face_of(2 * e));
    const FaceId b = find(faces.face_of(2 * e + 1));
    if (a == b) continue;  // a bridge: deleting it would disconnect
    face_root[a] = b;
    alive[static_cast<std::size_t>(e)] = 0;
    --remaining;
  }
  // Rebuild with induced rotations (relative order preserved → planar).
  std::vector<std::vector<NodeId>> rot(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (DartId d : g.rotation(v)) {
      if (alive[static_cast<std::size_t>(EmbeddedGraph::edge_of(d))]) {
        rot[static_cast<std::size_t>(v)].push_back(g.head(d));
      }
    }
  }
  GeneratedGraph out;
  out.graph = EmbeddedGraph::from_rotations(rot);
  if (g.has_coordinates()) out.graph.set_coordinates(g.coordinates());
  out.root_hint = tri.root_hint;
  out.name = "random_planar";
  return out;
}

GeneratedGraph outerplanar(int n, int chords, Rng& rng) {
  PLANSEP_CHECK(n >= 3);
  std::vector<Point> pts;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < n; ++i) {
    const double a = 2 * kPi * i / n;
    pts.push_back({std::cos(a), std::sin(a)});
    edges.emplace_back(i, (i + 1) % n);
  }
  // Random triangulation of the polygon yields n−3 non-crossing chords.
  std::vector<std::pair<NodeId, NodeId>> all_chords;
  std::vector<std::pair<int, int>> stack{{0, n - 1}};  // polygon arcs [i..j]
  while (!stack.empty()) {
    auto [i, j] = stack.back();
    stack.pop_back();
    if (j - i < 2) continue;
    const int k =
        i + 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(j - i - 1)));
    if (k - i >= 2) all_chords.emplace_back(i, k);
    if (j - k >= 2) all_chords.emplace_back(k, j);
    stack.emplace_back(i, k);
    stack.emplace_back(k, j);
  }
  // Deduplicate and drop chords that coincide with polygon edges.
  std::sort(all_chords.begin(), all_chords.end());
  all_chords.erase(std::unique(all_chords.begin(), all_chords.end()),
                   all_chords.end());
  std::erase_if(all_chords, [&](const auto& c) {
    const int d = std::abs(c.second - c.first);
    return d == 1 || d == n - 1;
  });
  rng.shuffle(all_chords);
  const int take = std::min<int>(chords, static_cast<int>(all_chords.size()));
  for (int i = 0; i < take; ++i) edges.push_back(all_chords[static_cast<std::size_t>(i)]);
  return from_coords("outerplanar", std::move(pts), std::move(edges), 0);
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kGrid: return "grid";
    case Family::kGridDiagonals: return "grid+diag";
    case Family::kCylinder: return "cylinder";
    case Family::kTriangulation: return "triangulation";
    case Family::kRandomPlanar: return "random_planar";
    case Family::kOuterplanar: return "outerplanar";
    case Family::kCycle: return "cycle";
    case Family::kRandomTree: return "random_tree";
    case Family::kStar: return "star";
    case Family::kWheel: return "wheel";
  }
  return "?";
}

std::optional<Family> family_from_name(std::string_view name) {
  for (Family f : all_families()) {
    if (name == family_name(f)) return f;
  }
  return std::nullopt;
}

GeneratedGraph make_instance(Family f, int n, std::uint64_t seed) {
  Rng rng(seed);
  switch (f) {
    case Family::kGrid: {
      const int side = std::max(1, static_cast<int>(std::lround(std::sqrt(n))));
      return grid(side, std::max(1, n / side));
    }
    case Family::kGridDiagonals: {
      const int side = std::max(1, static_cast<int>(std::lround(std::sqrt(n))));
      return grid_with_diagonals(side, std::max(1, n / side), 0.5, rng);
    }
    case Family::kCylinder: {
      const int cols = std::max(3, static_cast<int>(std::lround(std::sqrt(n))));
      return cylinder(std::max(1, n / cols), cols);
    }
    case Family::kTriangulation:
      return stacked_triangulation(std::max(3, n), rng);
    case Family::kRandomPlanar:
      return random_planar(std::max(3, n), (3 * n) / 2, rng);
    case Family::kOuterplanar:
      return outerplanar(std::max(3, n), n / 4, rng);
    case Family::kCycle:
      return cycle(std::max(3, n));
    case Family::kRandomTree:
      return random_tree(std::max(1, n), rng);
    case Family::kStar:
      return star(std::max(2, n));
    case Family::kWheel:
      return wheel(std::max(4, n));
  }
  PLANSEP_CHECK_MSG(false, "unknown family");
  GeneratedGraph out;
  return out;
}

std::vector<Family> all_families() {
  return {Family::kGrid,         Family::kGridDiagonals, Family::kCylinder,
          Family::kTriangulation, Family::kRandomPlanar,  Family::kOuterplanar,
          Family::kCycle,        Family::kRandomTree,    Family::kStar,
          Family::kWheel};
}

}  // namespace plansep::planar
