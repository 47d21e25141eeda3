#pragma once

// The face table of one part (Lemmas 12 and 15–18): every real
// fundamental edge of the part's tree with its broadcast payload
// (FaceData, which carries the analyzed edge and its LCA) and its unit
// weight ω(F_e), each computed once, at the edge's endpoints. The
// candidate search of a part builds one; Phases 3–5, the containment
// picks and the hidden scans all read it, and it is dropped with the
// search, so it lives only as long as one part's search.

#include <vector>

#include "faces/membership.hpp"

namespace plansep::faces {

class FaceTable {
 public:
  /// Analyzes every real fundamental edge of t: O(Σ (deg u + deg v) plus
  /// the non-ancestor edges' LCA walks).
  explicit FaceTable(const RootedSpanningTree& t);

  const RootedSpanningTree& tree() const { return *t_; }
  /// Number of real fundamental edges; entries follow edge-id order.
  std::size_t size() const { return faces_.size(); }
  const FaceData& face(std::size_t i) const { return faces_[i]; }
  const FundamentalEdge& edge(std::size_t i) const { return faces_[i].fe; }
  /// ω(F_e) under unit weights.
  long long weight(std::size_t i) const { return weight_[i]; }
  /// z's side of face i: classify_node(face(i), node_data(tree(), z)).
  FaceSide classify(std::size_t i, NodeId z) const {
    return classify_node(faces_[i], node_data(*t_, z));
  }

 private:
  const RootedSpanningTree* t_;
  std::vector<FaceData> faces_;
  std::vector<long long> weight_;
};

}  // namespace plansep::faces
