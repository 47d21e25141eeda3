#pragma once

// Message-level distributed BFS: the basic wave algorithm. Builds a BFS
// spanning tree in depth(T) rounds; used to (a) construct the global tree
// the part-wise aggregation engine routes over, and (b) obtain the
// diameter bound D that the paper's Õ(D) claims are measured against.

#include "congest/network.hpp"

namespace plansep::congest {

struct BfsResult {
  NodeId root = planar::kNoNode;
  std::vector<DartId> parent_dart;  // dart v→parent; kNoDart for root/unreached
  std::vector<int> depth;           // -1 for unreached
  int height = 0;                   // max depth reached
  int rounds = 0;                   // rounds the distributed wave took
  long long messages = 0;
};

/// Runs the BFS wave from root over the whole graph.
BfsResult distributed_bfs(const EmbeddedGraph& g, NodeId root);

/// Throws CheckError unless `bfs` is a BFS-shaped spanning tree of g: one
/// entry per node, the root in range at depth 0 with no parent, every
/// other node's parent dart leaving it towards a node exactly one level
/// up, and `height` the deepest level. A tree decoded from an artifact is
/// untrusted until this passes; distributed_bfs's trees pass by
/// construction (a node takes its depth and parent from one message).
void check_spanning_tree(const EmbeddedGraph& g, const BfsResult& bfs);

/// Two-sweep diameter estimate: BFS from root, then BFS from the deepest
/// node found. Returns the second tree's height — a lower bound on the
/// diameter that is within a factor 2 of it (exact on trees). The returned
/// cost is the rounds of the two waves.
struct DiameterEstimate {
  int diameter_lb = 0;  // eccentricity of the second root (<= D)
  int rounds = 0;
};
DiameterEstimate estimate_diameter(const EmbeddedGraph& g, NodeId root);

}  // namespace plansep::congest
