#include "faces/hidden.hpp"

#include "faces/containment.hpp"
#include "util/check.hpp"

namespace plansep::faces {

namespace {

/// Definition 4, condition 2: whether F_f cuts off part of T_u ∩ F_e,
/// i.e. some node of the subtrees hanging inside F_e at u = e.fe.u lies
/// outside F_f. The distributed rule lets u decide this from its local
/// intervals (Lemma 16); here the subtrees are walked.
bool cuts_off(const RootedSpanningTree& t, const FaceData& e,
              const FaceData& f) {
  const NodeId u = e.fe.u;
  const OffsetRange inside = inside_offsets(t, e.fe, u);
  std::vector<NodeId> stack;
  for (NodeId c : t.children(u)) {
    if (!inside.contains(child_offset(t, c))) continue;
    stack.assign(1, c);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      if (classify_node(f, node_data(t, x)) == FaceSide::kOutside) {
        return true;
      }
      for (NodeId y : t.children(x)) stack.push_back(y);
    }
  }
  return false;
}

}  // namespace

bool hides(const RootedSpanningTree& t, const FaceData& e, const FaceData& f,
           NodeId z) {
  if (f.fe.edge == e.fe.edge) return false;
  if (!face_contains(t, e, f.fe)) return false;
  if (classify_node(f, node_data(t, z)) != FaceSide::kInside) return false;
  // Definition 4, condition 1: u is not an endpoint of f.
  if (f.fe.u != e.fe.u && f.fe.v != e.fe.u) return true;
  return cuts_off(t, e, f);
}

std::vector<std::size_t> hiding_edges(const FaceTable& table,
                                      const FaceData& e, NodeId z) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (hides(table.tree(), e, table.face(i), z)) out.push_back(i);
  }
  return out;
}

}  // namespace plansep::faces
