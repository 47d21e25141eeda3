// Property tests for the local face machinery: Remark 1 membership,
// dart_points_inside, augmentation weights (Remark 2 / full augmentation,
// under unit, all-ones and random node weights), hidden detection
// (Definition 4 / Lemma 6) and containment — all checked against the
// region oracle on family × seed sweeps.

#include <gtest/gtest.h>

#include <string>

#include "faces/augmentation.hpp"
#include "faces/containment.hpp"
#include "faces/fundamental.hpp"
#include "faces/hidden.hpp"
#include "faces/membership.hpp"
#include "faces/weight_oracle.hpp"
#include "faces/weights.hpp"
#include "planar/generators.hpp"
#include "tree/rooted_tree.hpp"
#include "util/rng.hpp"

namespace plansep::faces {
namespace {

using planar::Family;
using planar::GeneratedGraph;

struct Case {
  Family family;
  int n;
  std::uint64_t seeds;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s = std::string(planar::family_name(info.param.family)) + "_" +
                  std::to_string(info.param.n);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

tree::RootedSpanningTree make_tree(const GeneratedGraph& gg,
                                   std::uint64_t seed) {
  Rng rng(seed * 1315423911ULL + 7);
  const planar::NodeId root =
      static_cast<planar::NodeId>(rng.next_below(gg.graph.num_nodes()));
  const int gap = static_cast<int>(rng.next_below(gg.graph.degree(root) + 1));
  return tree::RootedSpanningTree::bfs(gg.graph, root, gap);
}

class MembershipMatchesOracle : public ::testing::TestWithParam<Case> {};

TEST_P(MembershipMatchesOracle, Remark1) {
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const auto t = make_tree(gg, seed);
    const FaceOracle oracle(t);
    for (planar::EdgeId e : real_fundamental_edges(t)) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      const auto region = oracle.real_face(fe);
      std::vector<char> on_border(gg.graph.num_nodes(), 0);
      for (planar::NodeId b : region.border) on_border[b] = 1;
      const FaceData fd = face_data(t, fe);
      for (planar::NodeId z : t.nodes()) {
        const FaceSide side = classify_node(fd, node_data(t, z));
        FaceSide want = FaceSide::kOutside;
        if (on_border[z]) {
          want = FaceSide::kBorder;
        } else if (region.inside[z]) {
          want = FaceSide::kInside;
        }
        ASSERT_EQ(static_cast<int>(side), static_cast<int>(want))
            << planar::family_name(c.family) << " n=" << c.n
            << " seed=" << seed << " e={" << fe.u << "," << fe.v << "} z=" << z
            << " anc=" << fe.u_ancestor_of_v;
      }
    }
  }
}

TEST_P(MembershipMatchesOracle, DartPointsInside) {
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const planar::EmbeddedGraph& g = gg.graph;
    const auto t = make_tree(gg, seed);
    const FaceOracle oracle(t);
    for (planar::EdgeId e : real_fundamental_edges(t)) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      const FaceData fd = face_data(t, fe);
      const auto region = oracle.real_face(fe);
      std::vector<char> on_border(g.num_nodes(), 0);
      for (planar::NodeId b : region.border) on_border[b] = 1;
      // For every non-cycle dart leaving a border node towards a node that
      // is strictly inside/outside, the rule must match the region.
      for (planar::NodeId x : region.border) {
        for (planar::DartId d : g.rotation(x)) {
          const planar::NodeId y = g.head(d);
          if (!t.contains(y) || on_border[y]) continue;
          const bool rule = dart_points_inside(t, fd, d);
          const bool truth = region.inside[y] != 0;
          ASSERT_EQ(rule, truth)
              << planar::family_name(c.family) << " seed=" << seed << " e={"
              << fe.u << "," << fe.v << "} dart " << x << "->" << y;
        }
      }
    }
  }
}

TEST_P(MembershipMatchesOracle, NotHiddenLeafWeightIsRealizable) {
  // The safety property Sub-phase 4.1 relies on (Lemmas 5–7): when a leaf
  // z inside F_e is not hidden by any real fundamental edge, the
  // augmented-weight arithmetic ω(F^ℓ_{uz}) must equal the region count of
  // some *planar* insertion of the virtual edge u–z — then the T-path u..z
  // plus that insertion is a Jordan curve and Lemma 5's balance argument
  // applies verbatim. Under all-ones and random node weights the
  // augmented weight must likewise be that insertion's weight sum.
  const Case& c = GetParam();
  int realized = 0;
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const auto t = make_tree(gg, seed);
    std::vector<long long> unit;
    std::vector<long long> ones(static_cast<std::size_t>(gg.graph.num_nodes()),
                                1);
    std::vector<long long> random(ones.size());
    Rng rng(seed * 2654435761ULL + 11);
    for (long long& x : random) x = rng.next_in(0, 100);
    const FaceOracle oracle(t);
    const FaceTable table(t);
    for (std::size_t i = 0; i < table.size(); ++i) {
      const FaceData& fd = table.face(i);
      const FundamentalEdge& fe = fd.fe;
      const auto region = oracle.real_face(fe);
      for (planar::NodeId z : t.nodes()) {
        if (!region.inside[z]) continue;
        if (!t.children(z).empty()) continue;  // leaves only
        if (gg.graph.has_edge(fe.u, z)) continue;
        if (!hiding_edges(table, fd, z).empty()) continue;  // hidden: fallback
        const auto regions = oracle.augmented_faces(fe, z);
        for (const std::vector<long long>* w : {&unit, &ones, &random}) {
          const long long got = augmented_weight(NodeWeights(t, *w), fd, z);
          bool matched = false;
          std::string valid_values;
          for (const auto& r : regions) {
            const long long want = oracle.lemma_weight(fe.u, z, r, *w);
            valid_values += std::to_string(want) + " ";
            if (want == got) matched = true;
          }
          ASSERT_TRUE(matched)
              << planar::family_name(c.family) << " n=" << c.n
              << " seed=" << seed << " e={" << fe.u << "," << fe.v
              << "} z=" << z << " got=" << got << " valid={" << valid_values
              << "} anc_e=" << fe.u_ancestor_of_v
              << " anc_z=" << t.is_ancestor(fe.u, z) << " weights="
              << (w == &unit ? "unit" : w == &ones ? "all-ones" : "random");
        }
        ++realized;
      }
    }
  }
  // Families with non-triangular faces must actually exercise this.
  if (c.family == Family::kGrid || c.family == Family::kCylinder) {
    EXPECT_GT(realized, 0);
  }
}

TEST_P(MembershipMatchesOracle, AugmentedWeightFollowsRemark2) {
  // Remark 2: weights of the full augmentation are monotone in the sweep
  // order among incomparable nodes, and a node's weight equals that of its
  // sweep-extreme leaf descendant.
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const auto t = make_tree(gg, seed);
    const NodeWeights unit(t);
    const FaceOracle oracle(t);
    for (planar::EdgeId e : real_fundamental_edges(t)) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      const FaceData fd = face_data(t, fe);
      const auto region = oracle.real_face(fe);
      const bool use_left = !fe.u_ancestor_of_v || uses_left_order(fe);
      std::vector<planar::NodeId> inside;
      for (planar::NodeId z : t.nodes()) {
        if (region.inside[z] && !gg.graph.has_edge(fe.u, z)) {
          inside.push_back(z);
        }
      }
      auto pi = [&](planar::NodeId x) {
        return use_left ? t.pi_left(x) : t.pi_right(x);
      };
      for (planar::NodeId a : inside) {
        for (planar::NodeId b : inside) {
          if (a == b || t.is_ancestor(a, b) || t.is_ancestor(b, a)) continue;
          if (pi(a) < pi(b)) {
            ASSERT_LE(augmented_weight(unit, fd, a),
                      augmented_weight(unit, fd, b))
                << planar::family_name(c.family) << " seed=" << seed << " e={"
                << fe.u << "," << fe.v << "} a=" << a << " b=" << b;
          }
        }
        // Remark 2 (3)/(4): equal weight at the sweep-extreme leaf
        // descendant.
        planar::NodeId leaf = a;
        while (!t.children(leaf).empty()) {
          planar::NodeId best = planar::kNoNode;
          for (planar::NodeId ch : t.children(leaf)) {
            if (best == planar::kNoNode || pi(ch) > pi(best)) best = ch;
          }
          leaf = best;
        }
        if (leaf != a && !gg.graph.has_edge(fe.u, leaf)) {
          // Remark 2 (3)/(4), corrected: for ancestor-type virtual edges
          // Definition 2 counts the strict interior, so descending from a
          // to its sweep-extreme leaf moves the a..leaf path segment onto
          // the border — the weight drops by exactly that segment's length.
          const long long correction =
              t.is_ancestor(fe.u, a) ? (t.depth(leaf) - t.depth(a)) : 0;
          ASSERT_EQ(augmented_weight(unit, fd, a),
                    augmented_weight(unit, fd, leaf) + correction)
              << planar::family_name(c.family) << " seed=" << seed << " e={"
              << fe.u << "," << fe.v << "} z=" << a << " leaf=" << leaf;
        }
      }
    }
  }
}

TEST_P(MembershipMatchesOracle, ContainmentMatchesOracle) {
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= c.seeds; ++seed) {
    const GeneratedGraph gg = planar::make_instance(c.family, c.n, seed);
    const auto t = make_tree(gg, seed);
    const FaceOracle oracle(t);
    const auto fund = real_fundamental_edges(t);
    std::vector<FundamentalEdge> fes;
    std::vector<FaceOracle::Region> regions;
    for (planar::EdgeId e : fund) {
      const FundamentalEdge fe = analyze_fundamental_edge(t, e);
      regions.push_back(oracle.real_face(fe));
      fes.push_back(fe);
    }
    for (std::size_t i = 0; i < fes.size(); ++i) {
      for (std::size_t j = 0; j < fes.size(); ++j) {
        if (i == j) continue;
        // Geometric ground truth: every instance face strictly inside
        // F_inner must be strictly inside F_outer (regions are unions of
        // instance faces, so this captures closed-region containment even
        // for empty-interior faces).
        bool subset = true;
        for (std::size_t f = 0; f < regions[i].face_inside.size(); ++f) {
          if (regions[j].face_inside[f] && !regions[i].face_inside[f]) {
            subset = false;
            break;
          }
        }
        const bool got = face_contains(t, face_data(t, fes[i]), fes[j]);
        ASSERT_EQ(got, subset)
            << planar::family_name(c.family) << " seed=" << seed << " outer={"
            << fes[i].u << "," << fes[i].v << "} inner={" << fes[j].u << ","
            << fes[j].v << "}";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MembershipMatchesOracle,
    ::testing::Values(Case{Family::kCycle, 10, 3},
                      Case{Family::kWheel, 10, 4},
                      Case{Family::kGrid, 16, 3},
                      Case{Family::kGridDiagonals, 16, 4},
                      Case{Family::kCylinder, 18, 3},
                      Case{Family::kTriangulation, 14, 6},
                      Case{Family::kTriangulation, 22, 4},
                      Case{Family::kRandomPlanar, 20, 5},
                      Case{Family::kOuterplanar, 16, 5}),
    case_name);

// ---------------------------------------------------- face table ------

/// The LCA by walking parent pointers, the deeper end first.
planar::NodeId walk_lca(const tree::RootedSpanningTree& t, planar::NodeId a,
                        planar::NodeId b) {
  while (a != b) {
    if (t.depth(a) >= t.depth(b)) {
      a = t.parent(a);
    } else {
      b = t.parent(b);
    }
  }
  return a;
}

/// Lemma 17/18's climb recomputed from the primitives: seed at the first
/// heaviest (outward) or lightest listed face, then move to the first
/// listed face that contains (outward) or is contained in the current one
/// until none does.
std::size_t reference_pick(const tree::RootedSpanningTree& t,
                           const std::vector<FundamentalEdge>& fes,
                           const std::vector<std::size_t>& among,
                           bool outward) {
  const NodeWeights unit(t);
  const auto weight = [&](std::size_t i) {
    return face_weight(unit, face_data(t, fes[among[i]]));
  };
  std::size_t cur = 0;
  for (std::size_t i = 1; i < among.size(); ++i) {
    if (outward ? weight(i) > weight(cur) : weight(i) < weight(cur)) cur = i;
  }
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t i = 0; i < among.size() && !moved; ++i) {
      if (i == cur) continue;
      const FundamentalEdge& a = fes[among[outward ? i : cur]];
      const FundamentalEdge& b = fes[among[outward ? cur : i]];
      if (face_contains(t, face_data(t, a), b)) {
        cur = i;
        moved = true;
      }
    }
  }
  return among[cur];
}

TEST(FaceTable, MatchesPrimitivesAndOracle) {
  int hidden_seen = 0;
  for (Family f : planar::all_families()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const GeneratedGraph gg = planar::make_instance(f, 40, seed);
      const auto& g = gg.graph;
      const planar::NodeId root = gg.root_hint;
      const int deg = g.degree(root);
      for (int gap : {0, deg / 2, deg}) {
        const std::string tag = std::string(planar::family_name(f)) +
                                " seed=" + std::to_string(seed) +
                                " gap=" + std::to_string(gap);
        const auto t = tree::RootedSpanningTree::bfs(g, root, gap);
        const FaceTable table(t);
        const FaceOracle oracle(t);
        const NodeWeights unit(t);
        const auto fund = real_fundamental_edges(t);
        ASSERT_EQ(table.size(), fund.size()) << tag;
        std::vector<FundamentalEdge> fes;  // analyzed afresh
        for (planar::EdgeId e : fund) {
          fes.push_back(analyze_fundamental_edge(t, e));
        }
        for (std::size_t i = 0; i < table.size(); ++i) {
          const FundamentalEdge& fe = table.edge(i);
          ASSERT_EQ(fe.edge, fund[i]) << tag;
          ASSERT_EQ(fe.lca, walk_lca(t, fe.u, fe.v)) << tag;
          const FaceData fd = face_data(t, fes[i]);
          ASSERT_EQ(table.weight(i), face_weight(unit, fd)) << tag;
          const auto region = oracle.real_face(fe);
          std::vector<char> on_border(g.num_nodes(), 0);
          for (planar::NodeId b : region.border) on_border[b] = 1;
          for (planar::NodeId z : t.nodes()) {
            const FaceSide got = table.classify(i, z);
            ASSERT_EQ(got, classify_node(fd, node_data(t, z))) << tag;
            const FaceSide want = on_border[z]       ? FaceSide::kBorder
                                  : region.inside[z] ? FaceSide::kInside
                                                     : FaceSide::kOutside;
            ASSERT_EQ(got, want) << tag << " e=" << fe.edge << " z=" << z;
          }
        }
        if (table.size() == 0) continue;

        // NOT-CONTAINED / NOT-CONTAINS over every face and over the heavy
        // ones, against the climb recomputed from face_contains.
        std::vector<std::size_t> all(table.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        std::vector<std::size_t> heavy;
        for (std::size_t i : all) {
          if (3 * table.weight(i) > 2 * t.size()) heavy.push_back(i);
        }
        for (const auto* among : {&all, &heavy}) {
          if (among->empty()) continue;
          const std::size_t out = pick_not_contained(table, *among);
          const std::size_t in = pick_not_contains(table, *among);
          ASSERT_EQ(out, reference_pick(t, fes, *among, true)) << tag;
          ASSERT_EQ(in, reference_pick(t, fes, *among, false)) << tag;
          for (std::size_t j : *among) {
            ASSERT_FALSE(face_contains(t, face_data(t, fes[j]), fes[out]))
                << tag;
            ASSERT_FALSE(face_contains(t, face_data(t, fes[in]), fes[j]))
                << tag;
          }
        }

        // hiding_edges against Definition 4 scanned over every edge pair:
        // f hides z in F_e iff F_f lies in F_e, z is inside F_f, and either
        // u is not an endpoint of f or some node hanging inside F_e below
        // u lies outside F_f.
        std::vector<FaceData> fds;
        for (const FundamentalEdge& fe : fes) fds.push_back(face_data(t, fe));
        for (std::size_t i = 0; i < table.size(); ++i) {
          const FaceData& fd = fds[i];
          const planar::NodeId u = fes[i].u;
          for (planar::NodeId z : t.nodes()) {
            if (classify_node(fd, node_data(t, z)) != FaceSide::kInside) {
              continue;
            }
            std::vector<std::size_t> want;
            for (std::size_t j = 0; j < fes.size(); ++j) {
              if (j == i || !face_contains(t, fd, fes[j])) continue;
              const FaceData& fj = fds[j];
              if (classify_node(fj, node_data(t, z)) != FaceSide::kInside) {
                continue;
              }
              bool hides = fes[j].u != u && fes[j].v != u;
              for (planar::NodeId x : t.nodes()) {
                if (hides) break;
                hides = fd.inside_u_l.contains(t.pi_left(x)) &&
                        classify_node(fj, node_data(t, x)) ==
                            FaceSide::kOutside;
              }
              if (hides) want.push_back(j);
            }
            ASSERT_EQ(hiding_edges(table, table.face(i), z), want)
                << tag << " e=" << fes[i].edge << " z=" << z;
            hidden_seen += want.empty() ? 0 : 1;
          }
        }
      }
    }
  }
  EXPECT_GT(hidden_seen, 0) << "no hidden node was exercised";
}

}  // namespace
}  // namespace plansep::faces
