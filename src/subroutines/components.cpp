#include "subroutines/components.hpp"

#include <algorithm>
#include <deque>

namespace plansep::sub {

Components connected_components(const planar::EmbeddedGraph& g,
                                const std::function<bool(planar::NodeId)>& in) {
  Components out;
  out.label.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  for (planar::NodeId s = 0; s < g.num_nodes(); ++s) {
    if (!in(s) || out.label[static_cast<std::size_t>(s)] >= 0) continue;
    const int id = out.count++;
    out.size.push_back(0);
    std::deque<planar::NodeId> queue{s};
    out.label[static_cast<std::size_t>(s)] = id;
    while (!queue.empty()) {
      const planar::NodeId v = queue.front();
      queue.pop_front();
      ++out.size[static_cast<std::size_t>(id)];
      for (planar::DartId d : g.rotation(v)) {
        const planar::NodeId w = g.head(d);
        if (!in(w) || out.label[static_cast<std::size_t>(w)] >= 0) continue;
        out.label[static_cast<std::size_t>(w)] = id;
        queue.push_back(w);
      }
    }
  }
  return out;
}

Balance balance_after_removal(const planar::EmbeddedGraph& g,
                              std::span<const planar::NodeId> nodes,
                              std::span<const planar::NodeId> removed,
                              std::span<const long long> weight) {
  const bool every = nodes.empty();
  // 0: not participating; 1: participating and not yet reached; 2: removed
  // or reached. The buffer is the thread's, kept between calls and zero
  // outside them, so a call over a part touches only that part's nodes
  // and the removed ones.
  thread_local std::vector<char> state;
  if (state.size() < static_cast<std::size_t>(g.num_nodes())) {
    state.resize(static_cast<std::size_t>(g.num_nodes()), 0);
  }
  if (every) std::fill_n(state.begin(), g.num_nodes(), 1);
  for (const planar::NodeId v : nodes) state[static_cast<std::size_t>(v)] = 1;
  for (const planar::NodeId v : removed) state[static_cast<std::size_t>(v)] = 2;
  const auto w = [&](planar::NodeId v) {
    return weight.empty() ? 1LL : weight[static_cast<std::size_t>(v)];
  };

  Balance out;
  std::vector<planar::NodeId> stack;
  const auto sweep = [&](planar::NodeId s) {
    out.total += w(s);
    if (state[static_cast<std::size_t>(s)] != 1) return;
    state[static_cast<std::size_t>(s)] = 2;
    stack.assign(1, s);
    long long size = 0;
    while (!stack.empty()) {
      const planar::NodeId v = stack.back();
      stack.pop_back();
      size += w(v);
      for (const planar::DartId d : g.rotation(v)) {
        const planar::NodeId u = g.head(d);
        if (state[static_cast<std::size_t>(u)] != 1) continue;
        state[static_cast<std::size_t>(u)] = 2;
        stack.push_back(u);
      }
    }
    out.largest = std::max(out.largest, size);
    ++out.components;
  };
  if (every) {
    for (planar::NodeId s = 0; s < g.num_nodes(); ++s) sweep(s);
    std::fill_n(state.begin(), g.num_nodes(), 0);
  } else {
    for (const planar::NodeId s : nodes) sweep(s);
    for (const planar::NodeId v : nodes) state[static_cast<std::size_t>(v)] = 0;
  }
  for (const planar::NodeId v : removed) state[static_cast<std::size_t>(v)] = 0;
  return out;
}

}  // namespace plansep::sub
