#pragma once

// Text export: Graphviz DOT and JSON summaries, for inspecting results
// visually. Edge-list import is the ingest front door's
// (ingest/pipeline.hpp); the binary persistence format lives next door in
// io/artifact.hpp.

#include <string>
#include <vector>

#include "dfs/partial_tree.hpp"
#include "planar/embedded_graph.hpp"

namespace plansep::io {

/// Graphviz DOT of the graph; nodes in `highlight` are filled. When a tree
/// is given, tree edges are drawn bold.
std::string to_dot(const planar::EmbeddedGraph& g,
                   const std::vector<char>& highlight = {},
                   const dfs::PartialDfsTree* tree = nullptr);

/// Compact JSON summary of a DFS tree: root, parent and depth arrays.
std::string dfs_to_json(const dfs::PartialDfsTree& tree);

/// Compact JSON for a node set (e.g. a separator path).
std::string nodes_to_json(const std::vector<planar::NodeId>& nodes);

}  // namespace plansep::io
