#include "testing/proptest.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <iostream>
#include <sstream>

#include "dfs/builder.hpp"
#include "separator/hierarchy.hpp"
#include "shortcuts/partwise_message.hpp"
#include "util/check.hpp"

namespace plansep::testing {

namespace {

using planar::NodeId;

// Seed-stream tags so generation, each mutation and the weight scheme draw
// from independent deterministic streams of the case seed.
constexpr std::uint64_t kPendantStream = 0x70656e64616e7401ULL;
constexpr std::uint64_t kSubdivStream = 0x7375626469760a02ULL;
constexpr std::uint64_t kWeightStream = 0x7765696768740a03ULL;

void add_pendant_trees(planar::EmbeddedGraph& g, std::uint64_t seed) {
  Rng rng(seed ^ kPendantStream);
  const NodeId base = g.num_nodes();
  const int hooks = std::max<int>(1, base / 8);
  for (int i = 0; i < hooks; ++i) {
    NodeId attach = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(base)));
    const int chain = static_cast<int>(rng.next_in(1, 3));
    for (int j = 0; j < chain; ++j) {
      const NodeId w = g.add_node();
      const int pos = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(g.degree(attach)) + 1));
      g.add_edge(attach, w, pos, 0);
      attach = w;
    }
  }
}

void subdivide_random_edges(planar::EmbeddedGraph& g, std::uint64_t seed) {
  Rng rng(seed ^ kSubdivStream);
  if (g.num_edges() == 0) return;
  std::vector<planar::EdgeId> edges(static_cast<std::size_t>(g.num_edges()));
  for (planar::EdgeId e = 0; e < g.num_edges(); ++e) edges[static_cast<std::size_t>(e)] = e;
  rng.shuffle(edges);
  const int take = std::max<int>(1, g.num_edges() / 8);
  // Rebuild by rotations: replacing neighbor v with the fresh midpoint w in
  // u's rotation (and vice versa) subdivides the edge in place, which
  // preserves the embedding's genus.
  std::vector<std::vector<NodeId>> rot(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) rot[static_cast<std::size_t>(v)] = g.neighbors(v);
  for (int i = 0; i < take; ++i) {
    const planar::EdgeId e = edges[static_cast<std::size_t>(i)];
    const NodeId u = g.edge_u(e);
    const NodeId v = g.edge_v(e);
    const NodeId w = static_cast<NodeId>(rot.size());
    auto& ru = rot[static_cast<std::size_t>(u)];
    auto& rv = rot[static_cast<std::size_t>(v)];
    *std::find(ru.begin(), ru.end(), v) = w;
    *std::find(rv.begin(), rv.end(), u) = w;
    rot.push_back({u, v});
  }
  g = planar::EmbeddedGraph::from_rotations(rot);
}

std::vector<long long> degenerate_weights(int n, std::uint64_t seed) {
  Rng rng(seed ^ kWeightStream);
  std::vector<long long> w(static_cast<std::size_t>(n), 1);
  switch (rng.next_below(3)) {
    case 0: {  // one node carries > 2/3 of the total
      w[static_cast<std::size_t>(rng.next_below(
          static_cast<std::uint64_t>(n)))] = 100LL * n;
      break;
    }
    case 1:  // sparse 0/1
      for (auto& x : w) x = rng.next_bool(0.1) ? 1 : 0;
      break;
    default:  // huge skewed values (overflow discipline)
      for (auto& x : w) x = rng.next_in(0, 1'000'000'000);
      break;
  }
  return w;
}

}  // namespace

// ---------------------------------------------------------------- cases --

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kPendantTrees: return "pendant_trees";
    case Mutation::kSubdividedEdges: return "subdivided_edges";
    case Mutation::kDegenerateWeights: return "degenerate_weights";
    case Mutation::kCombined: return "combined";
  }
  return "?";
}

std::optional<Mutation> mutation_from_name(std::string_view name) {
  for (Mutation m : {Mutation::kNone, Mutation::kPendantTrees,
                     Mutation::kSubdividedEdges, Mutation::kDegenerateWeights,
                     Mutation::kCombined}) {
    if (name == mutation_name(m)) return m;
  }
  return std::nullopt;
}

const char* fault_family_name(FaultFamily f) {
  switch (f) {
    case FaultFamily::kNone: return "none";
    case FaultFamily::kDrops: return "drops";
    case FaultFamily::kDuplicates: return "dups";
    case FaultFamily::kReorder: return "reorder";
    case FaultFamily::kCrashes: return "crashes";
    case FaultFamily::kStalls: return "stalls";
    case FaultFamily::kOutages: return "outages";
    case FaultFamily::kChaos: return "chaos";
  }
  return "?";
}

std::optional<FaultFamily> fault_family_from_name(std::string_view name) {
  for (FaultFamily f :
       {FaultFamily::kNone, FaultFamily::kDrops, FaultFamily::kDuplicates,
        FaultFamily::kReorder, FaultFamily::kCrashes, FaultFamily::kStalls,
        FaultFamily::kOutages, FaultFamily::kChaos}) {
    if (name == fault_family_name(f)) return f;
  }
  return std::nullopt;
}

std::string CaseSpec::replay() const {
  std::ostringstream os;
  os << "--seed=" << seed << " --family=" << planar::family_name(family)
     << " --n=" << n;
  if (mutation != Mutation::kNone) {
    os << " --mutation=" << mutation_name(mutation);
  }
  if (faults != FaultFamily::kNone) {
    os << " --faults=" << fault_family_name(faults);
  }
  return os.str();
}

std::optional<CaseSpec> parse_replay(std::string_view line) {
  CaseSpec spec;
  bool have_seed = false, have_family = false, have_n = false;
  std::istringstream is{std::string(line)};
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (tok.rfind("--", 0) != 0 || eq == std::string::npos) return std::nullopt;
    const std::string_view key = std::string_view(tok).substr(2, eq - 2);
    const std::string_view val = std::string_view(tok).substr(eq + 1);
    if (key == "seed") {
      const auto [p, ec] =
          std::from_chars(val.data(), val.data() + val.size(), spec.seed);
      if (ec != std::errc() || p != val.data() + val.size()) return std::nullopt;
      have_seed = true;
    } else if (key == "n") {
      const auto [p, ec] =
          std::from_chars(val.data(), val.data() + val.size(), spec.n);
      if (ec != std::errc() || p != val.data() + val.size()) return std::nullopt;
      have_n = true;
    } else if (key == "family") {
      const auto f = planar::family_from_name(val);
      if (!f) return std::nullopt;
      spec.family = *f;
      have_family = true;
    } else if (key == "mutation") {
      const auto m = mutation_from_name(val);
      if (!m) return std::nullopt;
      spec.mutation = *m;
    } else if (key == "faults") {
      const auto f = fault_family_from_name(val);
      if (!f) return std::nullopt;
      spec.faults = *f;
    } else {
      return std::nullopt;
    }
  }
  if (!have_seed || !have_family || !have_n) return std::nullopt;
  return spec;
}

Instance build_instance(const CaseSpec& spec) {
  Instance inst;
  inst.spec = spec;
  inst.gg = planar::make_instance(spec.family, spec.n, spec.seed);
  auto& g = inst.gg.graph;
  const bool pendants = spec.mutation == Mutation::kPendantTrees ||
                        spec.mutation == Mutation::kCombined;
  const bool subdivide = spec.mutation == Mutation::kSubdividedEdges ||
                         spec.mutation == Mutation::kCombined;
  const bool weights = spec.mutation == Mutation::kDegenerateWeights ||
                       spec.mutation == Mutation::kCombined;
  if (pendants) add_pendant_trees(g, spec.seed);
  if (subdivide) subdivide_random_edges(g, spec.seed);
  if (pendants || subdivide) {
    // Coordinates and the outer dart describe the pre-mutation embedding.
    g.set_coordinates({});
    inst.gg.outer_dart = planar::kNoDart;
    inst.gg.name += std::string("+") + mutation_name(spec.mutation);
  }
  inst.weight = weights ? degenerate_weights(g.num_nodes(), spec.seed)
                        : std::vector<long long>(
                              static_cast<std::size_t>(g.num_nodes()), 1);
  return inst;
}

// ------------------------------------------------------------- pipeline --

PipelineStats run_pipeline_checked(const Instance& inst,
                                   const PipelineOptions& opt,
                                   InvariantReport& rep) {
  PipelineStats st;
  const auto& g = inst.gg.graph;
  const NodeId root = inst.gg.root_hint;
  st.n = g.num_nodes();

  check_embedding(g, /*require_connected=*/true, rep);
  if (!rep.ok()) return st;  // downstream stages require a connected plane graph

  // Apex triangulation is specified for 2-connected inputs only, so the
  // stage is gated on them; the separator/DFS stages run regardless.
  if (planar::triangulable(g)) {
    const planar::Triangulation tri = planar::triangulate_with_apexes(g);
    check_triangulation(g, tri, rep);
  }

  TraceRecorder rec;
  {
    std::optional<ScopedTraceCapture> cap;
    if (opt.capture_trace) cap.emplace(rec);

    shortcuts::PartwiseEngine engine(g, root);
    st.diameter_bound = engine.diameter_bound();

    // Theorem 1 on the whole graph as a single part.
    const separator::WholeGraphSeparator run =
        separator::separate_whole_graph(g, engine, root);
    check_cycle_separator(run.parts, 0, run.separator(), rep);
    if (run.result.stats.phase_counts[7] != 0) {
      rep.fail("separator/last_resort: exhaustive fallback fired");
    }
    st.separator_measured = run.cost.measured;
    st.separator_charged = run.cost.charged;
    st.separator_phase = run.separator().phase;
    check_round_envelope("separator_measured", run.cost.measured,
                         st.diameter_bound, st.n, opt.separator_envelope, rep);
    check_round_envelope("separator_charged", run.cost.charged,
                         st.diameter_bound, st.n, opt.separator_envelope, rep);

    // Weighted Theorem 1 whenever the case carries a degenerate vector.
    const bool uniform = std::all_of(inst.weight.begin(), inst.weight.end(),
                                     [](long long w) { return w == 1; });
    if (!uniform) {
      const separator::SeparatorResult wres =
          separator::SeparatorEngine(engine).compute_weighted(run.parts,
                                                              inst.weight);
      check_weighted_separator(run.parts, 0, wres.parts.at(0), inst.weight,
                               rep);
      if (wres.stats.phase_counts[7] != 0) {
        rep.fail("wseparator/last_resort: exhaustive fallback fired");
      }
    }

    if (opt.run_hierarchy) {
      const separator::SeparatorHierarchy h =
          separator::build_hierarchy(g, engine, opt.leaf_size);
      check_hierarchy(g, h, opt.leaf_size, rep);
      st.hierarchy_levels = h.levels;
    }

    if (opt.run_dfs) {
      const dfs::DfsBuildResult build = dfs::build_dfs_tree(g, root, engine);
      check_dfs_tree_oracle(g, build.tree.root(), build.tree.parents(),
                            build.tree.depths(), rep);
      st.dfs_phases = build.phases;
      st.dfs_measured = build.cost.measured;
      st.dfs_charged = build.cost.charged;
      check_round_envelope("dfs_measured", build.cost.measured,
                           st.diameter_bound, st.n, opt.dfs_envelope, rep);
      check_round_envelope("dfs_charged", build.cost.charged,
                           st.diameter_bound, st.n, opt.dfs_envelope, rep);
    }

    if (opt.capture_trace) {
      // Exercise the message-level part-wise aggregation protocol so the
      // trace carries real combining traffic, and cross-check its values
      // against the analytic engine.
      std::vector<std::int64_t> value(static_cast<std::size_t>(g.num_nodes()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        value[static_cast<std::size_t>(v)] = (7 * v) % 23;
      }
      const shortcuts::MessageAggregateResult msg =
          shortcuts::message_level_aggregate(g, engine.global_tree(),
                                             run.parts.part, value,
                                             shortcuts::AggOp::kSum);
      const shortcuts::AggregateResult ana =
          engine.aggregate(run.parts.part, value, shortcuts::AggOp::kSum);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (msg.value[static_cast<std::size_t>(v)] !=
            ana.value[static_cast<std::size_t>(v)]) {
          rep.fail("aggregate/values: message-level != analytic at node " +
                   std::to_string(v));
          break;
        }
      }
    }
  }
  if (opt.capture_trace) {
    st.trace_messages = rec.total_messages();
    check_bandwidth(g, rec.events(), rep);
  }
  return st;
}

// -------------------------------------------------------------- runner --

std::vector<planar::Family> default_families() {
  using planar::Family;
  return {Family::kGrid,      Family::kGridDiagonals, Family::kCylinder,
          Family::kTriangulation, Family::kRandomPlanar, Family::kOuterplanar,
          Family::kCycle,     Family::kRandomTree,    Family::kWheel};
}

InvariantReport run_one(const CaseSpec& spec, const Property& prop) {
  InvariantReport rep;
  try {
    const Instance inst = build_instance(spec);
    prop(inst, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  return rep;
}

namespace {

// Greedy shrink: keep adopting the first smaller variant that still fails
// (drop the faults, simplify chaos to a single fault kind, drop the
// mutation, then shrink n) until nothing smaller fails or the budget runs
// out. Deterministic — candidates keep the original seed.
CaseSpec shrink_failure(const CaseSpec& spec, const Property& prop, int budget,
                        std::string& report_out) {
  CaseSpec cur = spec;
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    std::vector<CaseSpec> candidates;
    if (cur.faults != FaultFamily::kNone) {
      // A failure that persists without faults is an algorithmic bug, not
      // a fault-tolerance one — by far the more valuable reduction, so it
      // is tried first.
      CaseSpec c = cur;
      c.faults = FaultFamily::kNone;
      candidates.push_back(c);
      if (cur.faults == FaultFamily::kChaos) {
        for (FaultFamily f :
             {FaultFamily::kDrops, FaultFamily::kDuplicates,
              FaultFamily::kReorder, FaultFamily::kCrashes,
              FaultFamily::kStalls, FaultFamily::kOutages}) {
          c = cur;
          c.faults = f;
          candidates.push_back(c);
        }
      }
    }
    if (cur.mutation != Mutation::kNone) {
      CaseSpec c = cur;
      c.mutation = Mutation::kNone;
      candidates.push_back(c);
    }
    for (int nn : {cur.n / 2, (3 * cur.n) / 4, cur.n - 1}) {
      if (nn >= 4 && nn < cur.n) {
        CaseSpec c = cur;
        c.n = nn;
        candidates.push_back(c);
      }
    }
    for (const CaseSpec& cand : candidates) {
      if (budget-- <= 0) break;
      const InvariantReport rep = run_one(cand, prop);
      if (!rep.ok()) {
        cur = cand;
        report_out = rep.to_string();
        improved = true;
        break;
      }
    }
  }
  return cur;
}

}  // namespace

std::string PropResult::summary() const {
  if (ok()) return std::to_string(cases_run) + " cases ok";
  std::string s = std::to_string(failures.size()) + " failure(s) in " +
                  std::to_string(cases_run) + " cases:";
  for (const Failure& f : failures) {
    s += "\n  replay: " + f.replay;
    std::istringstream lines(f.report);
    std::string line;
    while (std::getline(lines, line)) s += "\n    " + line;
  }
  return s;
}

PropResult run_property(const std::string& name, const PropConfig& cfg,
                        const Property& prop) {
  const std::vector<planar::Family> fams =
      cfg.families.empty() ? default_families() : cfg.families;
  PLANSEP_CHECK_MSG(!fams.empty(), "no families to draw cases from");
  PLANSEP_CHECK(cfg.min_n >= 4 && cfg.min_n <= cfg.max_n);
  Rng rng(cfg.base_seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);

  PropResult out;
  for (int i = 0; i < cfg.cases; ++i) {
    if (static_cast<int>(out.failures.size()) >= cfg.max_failures) break;
    CaseSpec spec;
    spec.family = fams[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(fams.size())))];
    spec.n = static_cast<int>(rng.next_in(cfg.min_n, cfg.max_n));
    spec.seed = rng.next_u64();
    if (rng.next_bool(cfg.mutation_probability)) {
      const Mutation kinds[] = {Mutation::kPendantTrees,
                                Mutation::kSubdividedEdges,
                                Mutation::kDegenerateWeights,
                                Mutation::kCombined};
      spec.mutation = kinds[rng.next_below(4)];
    }
    // Drawn only for fault-aware suites: an empty fault_families leaves the
    // seed stream exactly as it was, so pre-existing suites replay
    // bit-for-bit.
    if (!cfg.fault_families.empty() && rng.next_bool(cfg.fault_probability)) {
      spec.faults = cfg.fault_families[static_cast<std::size_t>(rng.next_below(
          static_cast<std::uint64_t>(cfg.fault_families.size())))];
    }
    const InvariantReport rep = run_one(spec, prop);
    ++out.cases_run;
    if (rep.ok()) continue;

    Failure f;
    f.original = spec;
    f.report = rep.to_string();
    f.shrunk = shrink_failure(spec, prop, cfg.shrink_budget, f.report);
    f.replay = f.shrunk.replay();
    std::cerr << "[proptest] FAIL " << name
              << "; replay: " << f.replay << std::endl;
    out.failures.push_back(std::move(f));
  }
  return out;
}

}  // namespace plansep::testing
