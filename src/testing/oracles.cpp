#include "testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <tuple>
#include <utility>

#include "planar/face_structure.hpp"
#include "separator/validate.hpp"

namespace plansep::testing {

namespace {

using planar::NodeId;

std::string fmt(const char* what, const std::string& detail) {
  std::string s = what;
  if (!detail.empty()) s += ": " + detail;
  return s;
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::string s;
  for (const auto& v : violations) {
    if (!s.empty()) s += "\n";
    s += v;
  }
  return s;
}

void check_embedding(const planar::EmbeddedGraph& g, bool require_connected,
                     InvariantReport& rep) {
  if (require_connected && g.num_components() != 1) {
    rep.fail(fmt("embedding/connected",
                 std::to_string(g.num_components()) + " components"));
  }
  if (g.num_edges() > 0) {
    const planar::FaceStructure faces(g);
    const int genus = faces.euler_genus(g);
    if (genus != 0) {
      rep.fail(fmt("embedding/genus",
                   "euler genus " + std::to_string(genus) + " != 0"));
    }
  }
}

void check_triangulation(const planar::EmbeddedGraph& g,
                         const planar::Triangulation& tri,
                         InvariantReport& rep) {
  if (tri.graph.num_nodes() < g.num_nodes() ||
      static_cast<int>(tri.is_apex.size()) != tri.graph.num_nodes()) {
    rep.fail("triangulation/shape: node counts inconsistent");
    return;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (tri.is_apex[static_cast<std::size_t>(v)]) {
      rep.fail(fmt("triangulation/prefix",
                   "original node " + std::to_string(v) + " marked apex"));
      return;
    }
  }
  check_embedding(tri.graph, false, rep);
  // Graphs with at least one cycle must come out fully triangulated; a
  // graph whose only face is the outer walk of a tree gets one apex face
  // per corner, which is also a triangle — so the check is uniform.
  if (tri.graph.num_edges() >= 3) {
    const planar::FaceStructure faces(tri.graph);
    for (planar::FaceId f = 0; f < faces.num_faces(); ++f) {
      if (faces.walk(f).size() != 3) {
        rep.fail(fmt("triangulation/face",
                     "face " + std::to_string(f) + " has walk length " +
                         std::to_string(faces.walk(f).size())));
        return;
      }
    }
  }
}

ReferenceBalance reference_balance(const planar::EmbeddedGraph& g,
                                   const std::vector<int>& part, int p,
                                   const std::vector<NodeId>& removed,
                                   const std::vector<long long>& weight) {
  const NodeId n = g.num_nodes();
  const auto in_part = [&](NodeId v) {
    return part.empty() || part[static_cast<std::size_t>(v)] == p;
  };
  const auto w = [&](NodeId v) {
    return weight.empty() ? 1LL : weight[static_cast<std::size_t>(v)];
  };
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  for (const NodeId v : removed) done[static_cast<std::size_t>(v)] = 1;
  ReferenceBalance out;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (!in_part(s)) continue;
    out.total += w(s);
    if (done[static_cast<std::size_t>(s)]) continue;
    long long size = 0;
    done[static_cast<std::size_t>(s)] = 1;
    queue.assign(1, s);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      size += w(v);
      for (const NodeId u : g.neighbors(v)) {
        if (!in_part(u) || done[static_cast<std::size_t>(u)]) continue;
        done[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
    out.heaviest = std::max(out.heaviest, size);
  }
  return out;
}

namespace {

// Theorem 1's structural half, shared by the unweighted and the weighted
// oracle (`tag` prefixes their failures): a marked path that is the tree
// path between its endpoints, node-simple and joined by its closing edge.
// The properties come from the library check; the balance, which the
// callers judge, from the reference search. False when nothing is marked.
bool check_separator_structure(const sub::PartSet& ps, int p,
                               const separator::PartSeparator& sep,
                               const std::string& tag, InvariantReport& rep) {
  if (sep.path.empty()) {
    rep.fail(tag + "/empty: no path marked");
    return false;
  }
  const separator::SeparatorCheck chk = separator::check_separator(ps, p, sep);
  if (!chk.is_tree_path) rep.fail(tag + "/tree_path: marked set is not the tree path between its endpoints");
  if (!chk.simple_path) rep.fail(tag + "/simple: a node repeats on the marked path");
  if (!chk.closure_ok) rep.fail(tag + "/closure: closing edge does not join the endpoints");
  return true;
}

}  // namespace

void check_cycle_separator(const sub::PartSet& ps, int p,
                           const separator::PartSeparator& sep,
                           InvariantReport& rep) {
  if (!check_separator_structure(ps, p, sep, "separator", rep)) return;
  const ReferenceBalance bal = reference_balance(*ps.g, ps.part, p, sep.path);
  if (!bal.ok()) {
    std::ostringstream os;
    os << "separator/balance: max component fraction "
       << static_cast<double>(bal.heaviest) / static_cast<double>(bal.total)
       << " > 2/3 (phase " << sep.phase << ")";
    rep.fail(os.str());
  }
}

void check_weighted_separator(const sub::PartSet& ps, int p,
                              const separator::PartSeparator& sep,
                              const std::vector<long long>& weight,
                              InvariantReport& rep) {
  if (!check_separator_structure(ps, p, sep, "wseparator", rep)) return;
  const ReferenceBalance bal =
      reference_balance(*ps.g, ps.part, p, sep.path, weight);
  if (!bal.ok()) {
    std::ostringstream os;
    os << "wseparator/balance: max component weight " << bal.heaviest
       << " > 2/3 of " << bal.total << " (phase " << sep.phase << ")";
    rep.fail(os.str());
  }
}

void check_dfs_tree_oracle(const planar::EmbeddedGraph& g, NodeId root,
                           std::span<const NodeId> parent,
                           std::span<const int> depth, InvariantReport& rep) {
  const NodeId n = g.num_nodes();
  if (parent.size() != static_cast<std::size_t>(n) ||
      depth.size() != static_cast<std::size_t>(n) || root < 0 || root >= n) {
    rep.fail("dfs/shape: arrays do not match the graph");
    return;
  }
  const auto at = [](auto arr, NodeId v) {
    return arr[static_cast<std::size_t>(v)];
  };
  if (at(parent, root) != planar::kNoNode || at(depth, root) != 0) {
    rep.fail("dfs/root: root has a parent or a nonzero depth");
    return;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const NodeId p = at(parent, v);
    if (p < 0 || p >= n || !g.has_edge(p, v)) {
      rep.fail(fmt("dfs/spanning",
                   "node " + std::to_string(v) + " has no tree edge up"));
      return;
    }
    if (at(depth, v) != static_cast<long long>(at(depth, p)) + 1) {
      rep.fail(fmt("dfs/depth", "node " + std::to_string(v)));
      return;
    }
  }
  // With depths consistent every parent chain ends at the root, so a walk
  // from the deeper endpoint up to the shallower one's depth is O(depth).
  long long violating = 0;
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    NodeId lo = g.edge_u(e);
    NodeId hi = g.edge_v(e);
    if (at(depth, lo) < at(depth, hi)) std::swap(lo, hi);
    while (at(depth, lo) > at(depth, hi)) lo = at(parent, lo);
    if (lo != hi) ++violating;
  }
  if (violating > 0) {
    rep.fail(fmt("dfs/ancestor", std::to_string(violating) +
                                     " edges join non-ancestor pairs"));
  }
}

void check_hierarchy(const planar::EmbeddedGraph& g,
                     const separator::SeparatorHierarchy& h, int leaf_size,
                     InvariantReport& rep) {
  const NodeId n = g.num_nodes();
  if (h.pieces.empty()) {
    if (n > 0) rep.fail("hierarchy/empty: no pieces over a nonempty graph");
    return;
  }
  for (std::size_t i = 0; i < h.pieces.size(); ++i) {
    const auto& piece = h.pieces[i];
    const auto tag = [&] { return "piece " + std::to_string(i); };
    if (piece.parent >= 0) {
      const auto& par = h.pieces[static_cast<std::size_t>(piece.parent)];
      if (piece.level != par.level + 1) {
        rep.fail(fmt("hierarchy/level", tag()));
      }
    }
    std::vector<char> in_piece(static_cast<std::size_t>(n), 0);
    for (NodeId v : piece.nodes) in_piece[static_cast<std::size_t>(v)] = 1;
    if (piece.is_leaf()) {
      if (static_cast<int>(piece.nodes.size()) > leaf_size) {
        rep.fail(fmt("hierarchy/leaf_size",
                     tag() + " has " + std::to_string(piece.nodes.size()) +
                         " > " + std::to_string(leaf_size) + " nodes"));
      }
      continue;
    }
    // Separator nodes belong to the piece; children partition the rest
    // into connected chunks of ≤ 2/3 the piece.
    std::vector<char> in_sep(static_cast<std::size_t>(n), 0);
    for (NodeId v : piece.separator) {
      if (!in_piece[static_cast<std::size_t>(v)]) {
        rep.fail(fmt("hierarchy/separator_subset", tag()));
        return;
      }
      in_sep[static_cast<std::size_t>(v)] = 1;
    }
    std::vector<char> covered(static_cast<std::size_t>(n), 0);
    std::size_t child_total = 0;
    for (int c : piece.children) {
      const auto& child = h.pieces[static_cast<std::size_t>(c)];
      if (3 * child.nodes.size() > 2 * piece.nodes.size()) {
        rep.fail(fmt("hierarchy/shrink",
                     tag() + " child of " + std::to_string(child.nodes.size()) +
                         "/" + std::to_string(piece.nodes.size())));
      }
      for (NodeId v : child.nodes) {
        if (!in_piece[static_cast<std::size_t>(v)] ||
            in_sep[static_cast<std::size_t>(v)] ||
            covered[static_cast<std::size_t>(v)]) {
          rep.fail(fmt("hierarchy/partition", tag()));
          return;
        }
        covered[static_cast<std::size_t>(v)] = 1;
      }
      child_total += child.nodes.size();
    }
    if (child_total + piece.separator.size() != piece.nodes.size()) {
      rep.fail(fmt("hierarchy/cover",
                   tag() + ": children + separator != piece"));
    }
  }
}

void check_bandwidth(const planar::EmbeddedGraph& g,
                     const std::vector<TraceEvent>& events,
                     InvariantReport& rep) {
  // Sort (run, round, dart) and look for adjacent duplicates.
  std::vector<std::tuple<int, int, planar::DartId>> keys;
  keys.reserve(events.size());
  for (const TraceEvent& e : events) {
    const planar::DartId d = g.find_dart(e.from, e.to);
    if (d == planar::kNoDart) {
      rep.fail(fmt("bandwidth/neighbor", TraceRecorder::format(e)));
      return;
    }
    keys.emplace_back(e.run, e.round, d);
  }
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    std::ostringstream os;
    os << "bandwidth/duplicate: two messages on dart " << std::get<2>(*dup)
       << " in run " << std::get<0>(*dup) << " round " << std::get<1>(*dup);
    rep.fail(os.str());
  }
}

long long RoundEnvelope::budget(int diameter, int n) const {
  const double log2n = std::log2(static_cast<double>(n) + 2.0);
  const double scaled = per_d_log2n * (diameter + 1.0) * log2n * log2n;
  return std::max(floor_rounds, static_cast<long long>(std::ceil(scaled)));
}

void check_round_envelope(const char* stage, long long rounds, int diameter,
                          int n, const RoundEnvelope& env,
                          InvariantReport& rep) {
  const long long budget = env.budget(diameter, n);
  if (rounds > 2 * budget) {
    std::ostringstream os;
    os << "rounds/" << stage << ": " << rounds << " rounds > 2x budget "
       << budget << " (D=" << diameter << ", n=" << n << ")";
    rep.fail(os.str());
  }
}

}  // namespace plansep::testing
