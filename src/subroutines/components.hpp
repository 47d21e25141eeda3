#pragma once

// Connected-component labelling over an induced node subset, and the 2/3
// balance test of a separator built on the same search. Centralized
// value computation; distributively this is one Borůvka run (Lemma 9 with
// unit weights, fragments merged until no outgoing edges remain), costing
// O(log n) part-wise aggregations, plus one size aggregation.

#include <functional>
#include <span>
#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::sub {

struct Components {
  std::vector<int> label;  // component id per node; -1 = excluded
  int count = 0;
  std::vector<int> size;   // per component
};

Components connected_components(const planar::EmbeddedGraph& g,
                                const std::function<bool(planar::NodeId)>& in);

/// What is left of the participating nodes once a node set is removed:
/// Theorem 1's criterion is that no component keeps more than 2/3 of the
/// participating nodes (or of their weight).
struct Balance {
  int components = 0;     // components of participating − removed
  long long largest = 0;  // node count (weight) of the largest of them
  long long total = 0;    // participating node count (weight), removed included
  bool balanced() const { return 3 * largest <= 2 * total; }
  /// largest / total; 0 when nothing participates.
  double fraction() const {
    return total > 0
               ? static_cast<double>(largest) / static_cast<double>(total)
               : 0.0;
  }
};

/// The one 2/3 balance test. `nodes` lists the participating nodes (a
/// part), or is empty for every node of g; `removed` must name nodes of g;
/// `weight` is indexed by node id, unit weights when empty. One pass over
/// the participating nodes and their darts.
Balance balance_after_removal(const planar::EmbeddedGraph& g,
                              std::span<const planar::NodeId> nodes,
                              std::span<const planar::NodeId> removed,
                              std::span<const long long> weight = {});

}  // namespace plansep::sub
