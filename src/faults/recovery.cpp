#include "faults/recovery.hpp"

#include <exception>

#include "dfs/validate.hpp"
#include "obs/metrics.hpp"
#include "separator/validate.hpp"
#include "subroutines/part_context.hpp"

namespace plansep::faults {

namespace {

// Charges `rounds` of backoff to a ledger and the obs round clock. Backoff
// models the adversary-mandated cool-down before re-running a phase; it is
// real protocol time, so it lands in both the measured and charged columns.
void charge_backoff(shortcuts::RoundCost& cost, long long rounds) {
  cost.measured += rounds;
  cost.charged += rounds;
  obs::advance_rounds(rounds);
}

long long backoff_for_attempt(const RetryPolicy& policy, int attempt) {
  return policy.backoff_base_rounds << (attempt - 1);
}

}  // namespace

RecoveredDfs build_dfs_tree_with_recovery(const planar::EmbeddedGraph& g,
                                          planar::NodeId root,
                                          const RetryPolicy& policy) {
  obs::Span span("faults/recover_dfs");
  RecoveredDfs out;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.recovery.attempts = attempt;
    try {
      // Fresh engine per attempt: its BFS tree is itself built over the
      // faulty network, so a broken setup must be redone too.
      shortcuts::PartwiseEngine engine(g, root);
      dfs::DfsBuildResult build = dfs::build_dfs_tree(g, root, engine);
      out.cost += build.cost;
      const dfs::DfsCheck check = dfs::check_dfs_tree(g, build.tree);
      if (check.ok()) {
        out.build = std::move(build);
        out.recovery.ok = true;
        out.recovery.failure.clear();
        break;
      }
      out.recovery.failure = "dfs invariant violated: " + check.summary();
    } catch (const std::exception& e) {
      out.recovery.failure = std::string("dfs attempt threw: ") + e.what();
    }
    if (attempt < max_attempts) {
      const long long backoff = backoff_for_attempt(policy, attempt);
      out.recovery.backoff_rounds += backoff;
      charge_backoff(out.cost, backoff);
      obs::add_counter("faults/retries");
    }
  }
  span.note("attempts", out.recovery.attempts);
  span.note("ok", out.recovery.ok ? 1 : 0);
  span.note("backoff_rounds", out.recovery.backoff_rounds);
  return out;
}

RecoveredSeparator compute_separator_with_recovery(
    const planar::EmbeddedGraph& g, planar::NodeId root,
    const RetryPolicy& policy) {
  obs::Span span("faults/recover_separator");
  RecoveredSeparator out;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.recovery.attempts = attempt;
    try {
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
      if (check.ok() && res.stats.phase_counts[7] == 0) {
        out.result = std::move(res);
        out.recovery.ok = true;
        out.recovery.failure.clear();
        break;
      }
      if (!check.ok()) {
        std::string why = "separator invariant violated:";
        if (!check.is_tree_path) why += " not-tree-path";
        if (!check.simple_path) why += " not-simple";
        if (!check.closure_ok) why += " closure";
        if (!check.balanced) why += " unbalanced";
        out.recovery.failure = why;
      } else {
        out.recovery.failure = "separator used the last-resort fallback";
      }
    } catch (const std::exception& e) {
      out.recovery.failure =
          std::string("separator attempt threw: ") + e.what();
    }
    if (attempt < max_attempts) {
      const long long backoff = backoff_for_attempt(policy, attempt);
      out.recovery.backoff_rounds += backoff;
      charge_backoff(out.cost, backoff);
      obs::add_counter("faults/retries");
    }
  }
  span.note("attempts", out.recovery.attempts);
  span.note("ok", out.recovery.ok ? 1 : 0);
  span.note("backoff_rounds", out.recovery.backoff_rounds);
  return out;
}

}  // namespace plansep::faults
