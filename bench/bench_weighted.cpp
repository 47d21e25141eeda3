// E14 (extension) — weighted cycle separators (the paper's future-work
// direction; SSSP/diameter applications [13] need weighted balance):
// balance and separator sizes across weight schemes.

#include <cstdio>

#include "bench_util.hpp"
#include "subroutines/components.hpp"
#include "util/stats.hpp"

namespace {

using namespace plansep;

std::vector<long long> weights(const char* scheme, int n, Rng& rng) {
  std::vector<long long> w(n, 1);
  if (std::string(scheme) == "random") {
    for (auto& x : w) x = rng.next_in(0, 100);
  } else if (std::string(scheme) == "zipf") {
    for (int i = 0; i < n; ++i) {
      w[i] = static_cast<long long>(1000.0 / (1 + rng.next_below(n)));
    }
  } else if (std::string(scheme) == "one_heavy") {
    w[rng.next_below(n)] = 100LL * n;
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  const bool quick = bench::quick_mode(argc, argv);
  bench::BenchJson json("weighted");
  const int seeds = quick ? 2 : 8;
  const int n = quick ? 150 : 1000;

  std::printf("E14: weighted cycle separators (n=%d, %d seeds)\n\n", n, seeds);
  Table table({"family", "scheme", "bal.mean", "bal.max", "sep.mean",
               "lastresort"});
  for (planar::Family f :
       {planar::Family::kGrid, planar::Family::kTriangulation,
        planar::Family::kRandomPlanar}) {
    for (const char* scheme : {"uniform", "random", "zipf", "one_heavy"}) {
      std::vector<double> balances, sizes;
      long long last_resorts = 0;
      for (int seed = 1; seed <= seeds; ++seed) {
        const auto gg = planar::make_instance(f, n, seed);
        const auto& g = gg.graph;
        shortcuts::PartwiseEngine engine(g, gg.root_hint);
        std::vector<int> part(g.num_nodes(), 0);
        sub::PartSet ps = sub::build_part_set(g, part, 1, engine);
        Rng rng(seed * 17);
        const auto w = weights(scheme, g.num_nodes(), rng);
        separator::SeparatorEngine se(engine);
        const auto res = se.compute_weighted(ps, w);
        last_resorts += res.stats.phase_counts[7];
        // Weighted balance of the result.
        balances.push_back(
            sub::balance_after_removal(g, {}, res.parts[0].path, w).fraction());
        sizes.push_back(static_cast<double>(res.parts[0].path.size()));
      }
      const Summary bal = summarize(balances);
      const Summary sz = summarize(sizes);
      table.add(planar::family_name(f), scheme, bal.mean, bal.max, sz.mean,
                last_resorts);
      json.row()
          .set("kind", "weighted_separator")
          .set("family", planar::family_name(f))
          .set("n", n)
          .set("scheme", scheme)
          .set("balance_mean", bal.mean)
          .set("balance_max", bal.max)
          .set("separator_mean", sz.mean)
          .set("last_resorts", last_resorts);
    }
  }
  table.print();
  json.write(bench::json_path_arg(argc, argv, "weighted"));
  std::printf(
      "\nExpectation: weighted balance <= 0.667 everywhere, including the\n"
      "degenerate one-heavy-node scheme; the weighted sweeps settle without\n"
      "the last-resort scan.\n");
  return 0;
}
