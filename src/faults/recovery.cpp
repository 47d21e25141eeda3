#include "faults/recovery.hpp"

#include <exception>

#include "dfs/validate.hpp"
#include "obs/metrics.hpp"
#include "separator/validate.hpp"
#include "subroutines/part_context.hpp"

namespace plansep::faults {

RetryStats retry_stage(const std::string& stage, shortcuts::RoundCost& cost,
                       const std::function<std::string()>& attempt) {
  obs::Span span(("faults/recover_" + stage).c_str());
  RetryStats stats;
  for (int k = 1; k <= kMaxAttempts; ++k) {
    stats.attempts = k;
    try {
      stats.failure = attempt();
      if (stats.failure.empty()) {
        stats.ok = true;
        break;
      }
    } catch (const std::exception& e) {
      stats.failure = stage + " attempt threw: " + e.what();
    }
    if (k < kMaxAttempts) {
      // Backoff models the adversary-mandated cool-down before a re-run.
      // It is real protocol time, so it lands in both ledger columns and
      // on the obs round clock.
      const long long backoff = kBackoffBaseRounds << (k - 1);
      stats.backoff_rounds += backoff;
      cost.measured += backoff;
      cost.charged += backoff;
      obs::advance_rounds(backoff);
      obs::add_counter("faults/retries");
    }
  }
  span.note("attempts", stats.attempts);
  span.note("ok", stats.ok ? 1 : 0);
  span.note("backoff_rounds", stats.backoff_rounds);
  return stats;
}

RecoveredDfs build_dfs_tree_with_recovery(const planar::EmbeddedGraph& g,
                                          planar::NodeId root) {
  RecoveredDfs out;
  out.recovery = retry_stage("dfs", out.cost, [&] {
    // Fresh engine per attempt: its BFS tree is itself built over the
    // faulty network, so a broken setup must be redone too.
    shortcuts::PartwiseEngine engine(g, root);
    dfs::DfsBuildResult build = dfs::build_dfs_tree(g, root, engine);
    out.cost += build.cost;
    const dfs::DfsCheck check = dfs::check_dfs_tree(g, build.tree);
    if (!check.ok()) return "dfs invariant violated: " + check.summary();
    out.build = std::move(build);
    return std::string();
  });
  return out;
}

RecoveredSeparator compute_separator_with_recovery(
    const planar::EmbeddedGraph& g, planar::NodeId root) {
  RecoveredSeparator out;
  out.recovery = retry_stage("separator", out.cost, [&] {
    shortcuts::PartwiseEngine engine(g, root);
    out.cost += engine.setup_cost();
    std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
    sub::PartSet ps = sub::build_part_set(g, part, 1, engine, {root});
    out.cost += ps.cost;
    separator::SeparatorEngine se(engine);
    separator::SeparatorResult res = se.compute(ps);
    out.cost += res.cost;
    const separator::SeparatorCheck check =
        separator::check_separator(ps, 0, res.parts.at(0));
    if (!check.ok()) {
      std::string why = "separator invariant violated:";
      if (!check.is_tree_path) why += " not-tree-path";
      if (!check.simple_path) why += " not-simple";
      if (!check.closure_ok) why += " closure";
      if (!check.balanced) why += " unbalanced";
      return why;
    }
    if (res.stats.phase_counts[7] != 0) {
      return std::string("separator used the last-resort fallback");
    }
    out.result = std::move(res);
    return std::string();
  });
  return out;
}

}  // namespace plansep::faults
