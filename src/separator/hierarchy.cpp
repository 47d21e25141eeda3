#include "separator/hierarchy.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "subroutines/components.hpp"
#include "subroutines/part_context.hpp"
#include "util/check.hpp"

namespace plansep::separator {

int SeparatorHierarchy::leaf_of(NodeId v) const {
  PLANSEP_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < leaf_of_.size(),
                    "leaf_of: node " + std::to_string(v) +
                        " outside [0, " + std::to_string(leaf_of_.size()) +
                        ")");
  return leaf_of_[static_cast<std::size_t>(v)];
}

void SeparatorHierarchy::rebuild_derived(NodeId n) {
  in_separator.assign(static_cast<std::size_t>(n), 0);
  leaf_of_.assign(static_cast<std::size_t>(n), -1);
  levels = 0;
  separator_nodes = 0;
  for (auto& piece : pieces) piece.children.clear();
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const HierarchyPiece& piece = pieces[i];
    levels = std::max(levels, piece.level + 1);
    if (piece.parent >= 0) {
      pieces[static_cast<std::size_t>(piece.parent)].children.push_back(
          static_cast<int>(i));
    }
    for (const NodeId v : piece.separator) {
      in_separator[static_cast<std::size_t>(v)] = 1;
      ++separator_nodes;
    }
    if (piece.is_leaf()) {
      for (const NodeId v : piece.nodes) {
        leaf_of_[static_cast<std::size_t>(v)] = static_cast<int>(i);
      }
    }
  }
}

SeparatorHierarchy build_hierarchy(const planar::EmbeddedGraph& g,
                                   shortcuts::PartwiseEngine& engine,
                                   int leaf_size) {
  PLANSEP_SPAN("separator/hierarchy");
  PLANSEP_CHECK(leaf_size >= 1);
  const NodeId n = g.num_nodes();
  SeparatorHierarchy out;

  SeparatorEngine sep_engine(engine);

  // piece_of[v]: index of the open piece containing v (-1 once v joins a
  // separator). Level 0: components of the whole graph.
  std::vector<int> piece_of(static_cast<std::size_t>(n), -1);
  {
    const sub::Components comps =
        sub::connected_components(g, [](NodeId) { return true; });
    for (int c = 0; c < comps.count; ++c) {
      HierarchyPiece piece;
      piece.level = 0;
      out.pieces.push_back(std::move(piece));
    }
    for (NodeId v = 0; v < n; ++v) {
      const int idx = comps.label[static_cast<std::size_t>(v)];
      piece_of[static_cast<std::size_t>(v)] = idx;
      out.pieces[static_cast<std::size_t>(idx)].nodes.push_back(v);
    }
  }

  std::vector<int> frontier(out.pieces.size());
  for (std::size_t i = 0; i < out.pieces.size(); ++i) {
    frontier[i] = static_cast<int>(i);
  }

  for (int level = 0; !frontier.empty(); ++level) {
    // Split every frontier piece larger than leaf_size; smaller pieces
    // become leaves.
    std::vector<int> to_split;
    for (int idx : frontier) {
      if (static_cast<int>(out.pieces[static_cast<std::size_t>(idx)]
                               .nodes.size()) > leaf_size) {
        to_split.push_back(idx);
      }
    }
    if (to_split.empty()) break;

    // One Theorem-1 invocation over all splitting pieces in parallel.
    std::vector<int> part(static_cast<std::size_t>(n), -1);
    for (std::size_t p = 0; p < to_split.size(); ++p) {
      for (NodeId v : out.pieces[static_cast<std::size_t>(to_split[p])].nodes) {
        part[static_cast<std::size_t>(v)] = static_cast<int>(p);
      }
    }
    sub::PartSet ps = sub::build_part_set(g, part, static_cast<int>(to_split.size()), engine);
    const SeparatorResult res = sep_engine.compute(ps);
    out.cost += ps.cost;
    out.cost += res.cost;

    for (std::size_t p = 0; p < to_split.size(); ++p) {
      auto& piece = out.pieces[static_cast<std::size_t>(to_split[p])];
      piece.separator = res.parts[p].path;
      for (NodeId v : piece.separator) {
        piece_of[static_cast<std::size_t>(v)] = -1;
      }
    }

    // Children pieces = components of the remainders.
    std::vector<char> splitting(out.pieces.size(), 0);
    for (int idx : to_split) splitting[static_cast<std::size_t>(idx)] = 1;
    const sub::Components comps = sub::connected_components(g, [&](NodeId v) {
      const int pi = piece_of[static_cast<std::size_t>(v)];
      return pi >= 0 && splitting[static_cast<std::size_t>(pi)];
    });
    out.cost += engine.blackbox_charge();
    std::vector<int> child_piece(static_cast<std::size_t>(comps.count), -1);
    std::vector<int> next_frontier;
    for (NodeId v = 0; v < n; ++v) {
      const int pi = piece_of[static_cast<std::size_t>(v)];
      if (pi < 0 || !splitting[static_cast<std::size_t>(pi)]) continue;
      const int c = comps.label[static_cast<std::size_t>(v)];
      if (child_piece[static_cast<std::size_t>(c)] < 0) {
        HierarchyPiece child;
        child.level = level + 1;
        child.parent = pi;
        child_piece[static_cast<std::size_t>(c)] =
            static_cast<int>(out.pieces.size());
        next_frontier.push_back(child_piece[static_cast<std::size_t>(c)]);
        out.pieces.push_back(std::move(child));
      }
      out.pieces[static_cast<std::size_t>(child_piece[static_cast<std::size_t>(c)])]
          .nodes.push_back(v);
    }
    for (NodeId v = 0; v < n; ++v) {
      const int pi = piece_of[static_cast<std::size_t>(v)];
      if (pi < 0) continue;
      const int c = comps.label[static_cast<std::size_t>(v)];
      if (c >= 0 && child_piece[static_cast<std::size_t>(c)] >= 0) {
        piece_of[static_cast<std::size_t>(v)] =
            child_piece[static_cast<std::size_t>(c)];
      }
    }
    frontier = std::move(next_frontier);
  }
  out.rebuild_derived(n);
  return out;
}

}  // namespace plansep::separator
