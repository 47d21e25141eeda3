#include "core/plansep.hpp"

#include "util/check.hpp"

namespace plansep {

SeparatorRun compute_cycle_separator(const planar::EmbeddedGraph& g,
                                     planar::NodeId root) {
  PLANSEP_CHECK_MSG(g.num_components() == 1, "graph must be connected");
  shortcuts::PartwiseEngine engine(g, root);
  const separator::WholeGraphSeparator run =
      separator::separate_whole_graph(g, engine, root);
  return {run.separator(),
          separator::check_separator(run.parts, 0, run.separator()), run.cost,
          engine.diameter_bound()};
}

DfsRun compute_dfs_tree(const planar::EmbeddedGraph& g, planar::NodeId root) {
  PLANSEP_CHECK_MSG(g.num_components() == 1, "graph must be connected");
  shortcuts::PartwiseEngine engine(g, root);
  DfsRun out{dfs::build_dfs_tree(g, root, engine),
             dfs::DfsCheck{},
             engine.diameter_bound()};
  out.check = dfs::check_dfs_tree(g, out.build.tree);
  return out;
}

}  // namespace plansep
