#pragma once

/// \file
/// Verification of persisted artifacts against the graph they were
/// computed on: the batch pipeline's "verify" stage.

// The engine-side validators (separator/validate.hpp) consume live engine
// structures (PartSet) that a warm-cache batch never builds — a cache hit
// hands back decoded arrays. These verifiers check the decoded artifact
// instead, so cold and warm runs verify (and report) through one code
// path, which is what makes warm-run result rows byte-identical to
// cold-run rows. They add only the checks an untrusted artifact needs
// (node ids in range, no repeats, a path along graph edges, the stored
// balance exact); the 2/3 balance test is sub::balance_after_removal and
// the DFS test dfs::check_dfs_tree, the same functions the engines use.

#include "dfs/validate.hpp"
#include "io/artifact.hpp"
#include "planar/embedded_graph.hpp"
#include "subroutines/components.hpp"

namespace plansep::serve {

/// Verification outcome for a persisted separator (whole graph as one
/// part): the cycle-separator properties of Theorem 1.
struct SeparatorVerify {
  bool nodes_valid = false;     ///< all path nodes in range, no repeats
  bool path_connected = false;  ///< consecutive path nodes adjacent in g
  sub::Balance balance;         ///< components of g − path (when nodes_valid)
  /// All properties hold.
  bool ok() const {
    return nodes_valid && path_connected && balance.balanced();
  }
};

/// Verifies a separator artifact against the graph it was computed on.
SeparatorVerify verify_separator_artifact(const planar::EmbeddedGraph& g,
                                          const io::SeparatorArtifact& s);

/// Verifies a DFS artifact against the graph it was computed on:
/// dfs::check_dfs_tree over its (root, parent, depth) arrays.
dfs::DfsCheck verify_dfs_artifact(const planar::EmbeddedGraph& g,
                                  const io::DfsArtifact& d);

/// Verifies a BFS-level baseline artifact: a found separator names
/// distinct nodes of g, leaves some node, is balanced, and its stored
/// balance is exactly the recomputed largest / n; a not-found one is
/// empty.
bool verify_level_separator_artifact(const planar::EmbeddedGraph& g,
                                     const io::LevelSeparatorArtifact& l);

}  // namespace plansep::serve
