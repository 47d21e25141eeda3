#include "planar/embedded_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace plansep::planar {

EmbeddedGraph::EmbeddedGraph(NodeId n) : rot_(static_cast<std::size_t>(n)) {
  PLANSEP_CHECK(n >= 0);
}

void EmbeddedGraph::check_node(NodeId v) const {
  PLANSEP_CHECK_MSG(v >= 0 && v < num_nodes(), "node id out of range");
}

DartId EmbeddedGraph::dart_from(EdgeId e, NodeId from) const {
  PLANSEP_CHECK(e >= 0 && e < num_edges());
  if (edge_u_[e] == from) return 2 * e;
  PLANSEP_CHECK_MSG(edge_v_[e] == from, "node is not an endpoint of edge");
  return 2 * e + 1;
}

DartId EmbeddedGraph::rot_next(DartId d) const {
  const NodeId v = tail(d);
  const auto& r = rot_[v];
  const int i = pos_[d];
  return r[(i + 1) % static_cast<int>(r.size())];
}

DartId EmbeddedGraph::rot_prev(DartId d) const {
  const NodeId v = tail(d);
  const auto& r = rot_[v];
  const int i = pos_[d];
  return r[(i + static_cast<int>(r.size()) - 1) % static_cast<int>(r.size())];
}

DartId EmbeddedGraph::find_dart(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  for (DartId d : rot_[u]) {
    if (head(d) == v) return d;
  }
  return kNoDart;
}

EdgeId EmbeddedGraph::add_edge(NodeId u, NodeId v, int pos_u, int pos_v) {
  check_node(u);
  check_node(v);
  PLANSEP_CHECK_MSG(u != v, "self-loops are not supported");
  PLANSEP_CHECK(pos_u >= 0 && pos_u <= degree(u));
  PLANSEP_CHECK(pos_v >= 0 && pos_v <= degree(v));
  const EdgeId e = num_edges();
  edge_u_.push_back(u);
  edge_v_.push_back(v);
  pos_.push_back(0);
  pos_.push_back(0);
  rot_[u].insert(rot_[u].begin() + pos_u, 2 * e);
  rot_[v].insert(rot_[v].begin() + pos_v, 2 * e + 1);
  for (int i = pos_u; i < degree(u); ++i) pos_[rot_[u][i]] = i;
  for (int i = pos_v; i < degree(v); ++i) pos_[rot_[v][i]] = i;
  return e;
}

EdgeId EmbeddedGraph::add_edge_back(NodeId u, NodeId v) {
  return add_edge(u, v, degree(u), degree(v));
}

NodeId EmbeddedGraph::add_node() {
  rot_.emplace_back();
  if (!coords_.empty()) coords_.push_back(Point{});
  return num_nodes() - 1;
}

void EmbeddedGraph::set_coordinates(std::vector<Point> coords) {
  PLANSEP_CHECK(coords.empty() ||
                static_cast<NodeId>(coords.size()) == num_nodes());
  coords_ = std::move(coords);
}

std::vector<NodeId> EmbeddedGraph::neighbors(NodeId v) const {
  check_node(v);
  std::vector<NodeId> out;
  out.reserve(rot_[v].size());
  for (DartId d : rot_[v]) out.push_back(head(d));
  return out;
}

int EmbeddedGraph::num_components() const {
  const NodeId n = num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> stack;
  int components = 0;
  for (NodeId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    ++components;
    seen[s] = 1;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (DartId d : rot_[v]) {
        const NodeId w = head(d);
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
  }
  return components;
}

EmbeddedGraph EmbeddedGraph::from_coordinates(
    const std::vector<Point>& coords,
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  EmbeddedGraph g(static_cast<NodeId>(coords.size()));
  for (const auto& [u, v] : edges) {
    PLANSEP_CHECK_MSG(!g.has_edge(u, v), "duplicate edge in input");
    g.add_edge_back(u, v);
  }
  // Sort each rotation clockwise by angle: standard orientation (y up),
  // clockwise means decreasing atan2. Each dart's angle is computed once.
  std::vector<double> angle(static_cast<std::size_t>(g.num_darts()));
  for (DartId d = 0; d < g.num_darts(); ++d) {
    const Point& p = coords[static_cast<std::size_t>(g.tail(d))];
    const Point& q = coords[static_cast<std::size_t>(g.head(d))];
    angle[static_cast<std::size_t>(d)] = std::atan2(q.y - p.y, q.x - p.x);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& r = g.rot_[v];
    std::sort(r.begin(), r.end(), [&](DartId a, DartId b) {
      const double ta = angle[static_cast<std::size_t>(a)];
      const double tb = angle[static_cast<std::size_t>(b)];
      if (ta != tb) return ta > tb;
      return a < b;  // deterministic tiebreak (collinear points)
    });
    for (int i = 0; i < static_cast<int>(r.size()); ++i) g.pos_[r[i]] = i;
  }
  g.coords_ = coords;
  return g;
}

EmbeddedGraph EmbeddedGraph::from_rotations(
    const std::vector<std::vector<NodeId>>& rotations) {
  const NodeId n = static_cast<NodeId>(rotations.size());
  EmbeddedGraph g(n);
  // First pass: create edges (u < v order of discovery), tracking darts.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : rotations[static_cast<std::size_t>(u)]) {
      PLANSEP_CHECK_MSG(v >= 0 && v < n, "rotation references invalid node");
      PLANSEP_CHECK_MSG(u != v, "self-loops are not supported");
      if (u < v) {
        PLANSEP_CHECK_MSG(!g.has_edge(u, v), "duplicate edge in rotations");
        g.add_edge_back(u, v);
      }
    }
  }
  // Second pass: order rotations as specified.
  for (NodeId u = 0; u < n; ++u) {
    const auto& want = rotations[static_cast<std::size_t>(u)];
    PLANSEP_CHECK_MSG(static_cast<int>(want.size()) == g.degree(u),
                      "asymmetric rotation input");
    std::vector<DartId> ordered;
    ordered.reserve(want.size());
    for (NodeId v : want) {
      const DartId d = g.find_dart(u, v);
      PLANSEP_CHECK_MSG(d != kNoDart, "asymmetric rotation input");
      ordered.push_back(d);
    }
    // Check no duplicates (parallel edges unsupported).
    auto sorted = ordered;
    std::sort(sorted.begin(), sorted.end());
    PLANSEP_CHECK_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "parallel edges are not supported");
    g.rot_[u] = std::move(ordered);
    for (int i = 0; i < g.degree(u); ++i) g.pos_[g.rot_[u][i]] = i;
  }
  return g;
}

std::string EmbeddedGraph::debug_string() const {
  std::ostringstream os;
  os << "EmbeddedGraph(n=" << num_nodes() << ", m=" << num_edges() << ")\n";
  for (NodeId v = 0; v < num_nodes(); ++v) {
    os << "  " << v << ":";
    for (DartId d : rot_[v]) os << ' ' << head(d);
    os << '\n';
  }
  return os.str();
}

}  // namespace plansep::planar
