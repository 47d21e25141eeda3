#include "io/text.hpp"

#include <sstream>

namespace plansep::io {

std::string to_dot(const planar::EmbeddedGraph& g,
                   const std::vector<char>& highlight,
                   const dfs::PartialDfsTree* tree) {
  std::ostringstream os;
  os << "graph G {\n  node [shape=circle, fontsize=10];\n";
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  " << v;
    if (!highlight.empty() && highlight[static_cast<std::size_t>(v)]) {
      os << " [style=filled, fillcolor=gold]";
    }
    os << ";\n";
  }
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) {
    const planar::NodeId a = g.edge_u(e);
    const planar::NodeId b = g.edge_v(e);
    bool is_tree = false;
    if (tree != nullptr) {
      is_tree = (tree->contains(a) && tree->parent(a) == b) ||
                (tree->contains(b) && tree->parent(b) == a);
    }
    os << "  " << a << " -- " << b;
    if (is_tree) os << " [penwidth=2.5]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string dfs_to_json(const dfs::PartialDfsTree& tree) {
  std::ostringstream os;
  os << "{\"root\":" << tree.root() << ",\"parent\":[";
  const auto& g = tree.graph();
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    os << (v ? "," : "") << (tree.contains(v) ? tree.parent(v) : -2);
  }
  os << "],\"depth\":[";
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    os << (v ? "," : "") << tree.depth(v);
  }
  os << "]}";
  return os.str();
}

std::string nodes_to_json(const std::vector<planar::NodeId>& nodes) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << (i ? "," : "") << nodes[i];
  }
  os << "]";
  return os.str();
}

}  // namespace plansep::io
