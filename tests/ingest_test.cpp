// The ingest front door (src/ingest/): reader dialects and hostile-input
// edge cases, the full rejection taxonomy with its exact error strings,
// canonicalization invariance, triangulation, and corpus round-trips —
// an accepted external edge list must be indistinguishable from a
// generated instance to every downstream tier.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/fingerprint.hpp"
#include "ingest/pipeline.hpp"
#include "io/corpus.hpp"
#include "planar/dmp_embedder.hpp"
#include "planar/planarity.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

ingest::IngestResult run(const std::string& text,
                         ingest::IngestOptions opts = {}) {
  return ingest::ingest_string(text, opts);
}

/// Runs and returns the rejection; fails the test if accepted.
ingest::IngestError reject(const std::string& text,
                           ingest::IngestOptions opts = {}) {
  try {
    (void)ingest::ingest_string(text, opts);
  } catch (const ingest::IngestError& e) {
    return e;
  }
  ADD_FAILURE() << "input was accepted: " << text;
  return {ingest::IngestErrorCode::kParse, 0, "unreached"};
}

// ------------------------------------------------------------- reader ----

TEST(IngestReader, PlainEdgeListWithCommentsBlanksAndCrlf) {
  const auto res = run("# header comment\r\n"
                       "10 20\r\n"
                       "\r\n"
                       "20 30\t\n"
                       "  30 10  \n"
                       "# trailing comment");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 3);
  EXPECT_EQ(res.stats.lines, 6u);
  EXPECT_EQ(res.stats.comment_lines, 3u);
  EXPECT_EQ(res.stats.input_edges, 3u);
}

TEST(IngestReader, DimacsDialect) {
  const auto res = run("c a dimacs file\n"
                       "p edge 3 3\n"
                       "e 1 2\n"
                       "e 2 3\n"
                       "e 3 1\n");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 3);
}

TEST(IngestReader, AutoDetectsDimacsFromLeadingComment) {
  // A leading "c ..." line selects the DIMACS dialect under kAuto.
  const auto res = run("c comment first\np edge 2 1\ne 1 2\n");
  EXPECT_EQ(res.graph.num_edges(), 1);

  ingest::IngestOptions opts;
  opts.format = ingest::TextFormat::kDimacs;
  const auto forced = run("p edge 2 1\ne 7 9\n", opts);
  EXPECT_EQ(forced.graph.num_edges(), 1);
}

TEST(IngestReader, SixtyFourBitIdsSurviveCompaction) {
  const long long big = 9007199254740993LL;  // > 2^53: dies in a double
  const auto res = run(std::to_string(big) + " " + std::to_string(big + 7) +
                       "\n" + std::to_string(big + 7) + " 3\n");
  EXPECT_EQ(res.graph.num_nodes(), 3);
  EXPECT_EQ(res.graph.num_edges(), 2);
}

TEST(IngestReader, FinalLineWithoutNewlineParses) {
  const auto res = run("1 2\n2 3");
  EXPECT_EQ(res.graph.num_edges(), 2);
}

// ----------------------------------------------------------- taxonomy ----

TEST(IngestTaxonomy, ParseErrorsCarryCodeLineAndExactMessage) {
  const auto e = reject("1 2\n1 2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kParse);
  EXPECT_EQ(e.line(), 2u);
  EXPECT_STREQ(e.what(),
               "ingest rejected [parse] line 2: trailing tokens after "
               "edge: '3'");

  const auto bad = reject("1 x\n");
  EXPECT_EQ(bad.code(), ingest::IngestErrorCode::kParse);
  EXPECT_STREQ(bad.what(),
               "ingest rejected [parse] line 1: expected node id, got 'x'");

  const auto neg = reject("1 -2\n");
  EXPECT_EQ(neg.code(), ingest::IngestErrorCode::kParse);

  const auto glued = reject("12x 3\n");
  EXPECT_EQ(glued.code(), ingest::IngestErrorCode::kParse);
}

TEST(IngestTaxonomy, Overflow) {
  const auto e = reject("18446744073709551617 2\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kOverflow);
  EXPECT_EQ(e.line(), 1u);
  EXPECT_STREQ(e.what(),
               "ingest rejected [overflow] line 1: node id "
               "'18446744073709551617' exceeds 2^63-1");
  // 2^63-1 itself is representable and fine.
  const auto ok = run("9223372036854775807 0\n");
  EXPECT_EQ(ok.graph.num_nodes(), 2);
}

TEST(IngestTaxonomy, LineLimit) {
  ingest::IngestOptions opts;
  opts.max_line_bytes = 16;
  const auto e = reject("1 2\n3 400000000000000000\n", opts);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kLineLimit);
  EXPECT_EQ(e.line(), 2u);
}

TEST(IngestTaxonomy, SelfLoopPolicy) {
  const auto e = reject("1 2\n7 7\n2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kSelfLoop);
  EXPECT_STREQ(e.what(),
               "ingest rejected [self-loop]: self-loop at node 7 (pass "
               "--drop-self-loops to drop)");

  ingest::IngestOptions opts;
  opts.drop_self_loops = true;
  const auto res = run("1 2\n7 7\n2 3\n", opts);
  EXPECT_EQ(res.graph.num_edges(), 2);
  EXPECT_EQ(res.stats.dropped_self_loops, 1u);
  EXPECT_EQ(res.graph.num_nodes(), 3) << "a dropped loop interns no node";
}

TEST(IngestTaxonomy, DuplicateEdgePolicy) {
  // Duplicates in either orientation.
  const auto e = reject("1 2\n2 3\n2 1\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kDuplicateEdge);
  EXPECT_STREQ(e.what(),
               "ingest rejected [duplicate-edge]: duplicate edge {1, 2} "
               "(pass --drop-duplicates to drop)");

  ingest::IngestOptions opts;
  opts.drop_duplicate_edges = true;
  const auto res = run("1 2\n2 3\n2 1\n", opts);
  EXPECT_EQ(res.graph.num_edges(), 2);
  EXPECT_EQ(res.stats.dropped_duplicates, 1u);
}

TEST(IngestTaxonomy, NodeAndEdgeCaps) {
  ingest::IngestOptions opts;
  opts.max_nodes = 3;
  const auto e = reject("1 2\n2 3\n3 4\n", opts);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kNodeLimit);

  ingest::IngestOptions opts2;
  opts2.max_edges = 2;
  const auto e2 = reject("1 2\n2 3\n3 4\n", opts2);
  EXPECT_EQ(e2.code(), ingest::IngestErrorCode::kEdgeLimit);
  EXPECT_EQ(e2.line(), 3u) << "the reader rejects while streaming";
}

TEST(IngestTaxonomy, EmptyInput) {
  EXPECT_EQ(reject("").code(), ingest::IngestErrorCode::kEmpty);
  EXPECT_EQ(reject("# only comments\n\n").code(),
            ingest::IngestErrorCode::kEmpty);
  EXPECT_STREQ(reject("").what(), "ingest rejected [empty]: no edges in input");
}

TEST(IngestTaxonomy, DimacsHeaderLies) {
  const auto e = reject("p edge 3 5\ne 1 2\ne 2 3\n");
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kParse);

  const auto e2 = reject("p edge 2 3\ne 1 2\ne 2 3\ne 3 1\n");
  EXPECT_EQ(e2.code(), ingest::IngestErrorCode::kParse);

  const auto e3 = reject("e 1 2\n");
  EXPECT_EQ(e3.code(), ingest::IngestErrorCode::kParse);

  const auto e4 = reject("p edge 9 1\ne 1 2\np edge 9 1\n");
  EXPECT_EQ(e4.code(), ingest::IngestErrorCode::kParse);
}

TEST(IngestTaxonomy, NonPlanarCarriesWitnessInOriginalIds) {
  // K5 over sparse external ids {100, 200, 300, 400, 500}.
  std::string text;
  const long long ids[5] = {100, 200, 300, 400, 500};
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      text += std::to_string(ids[a]) + " " + std::to_string(ids[b]) + "\n";
    }
  }
  // Plus a planar tail hanging off one K5 vertex.
  text += "100 7\n7 8\n";
  const auto e = reject(text);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kNonPlanar);
  ASSERT_EQ(e.witness().size(), 10u) << "witness is the K5 block only";
  for (const auto& [u, v] : e.witness()) {
    EXPECT_TRUE(u == 100 || u == 200 || u == 300 || u == 400 || u == 500);
    EXPECT_TRUE(v == 100 || v == 200 || v == 300 || v == 400 || v == 500);
  }
}

// ------------------------------------------------- canonicalization ------

TEST(IngestCanonical, FingerprintInvariantUnderOrderAndOrientation) {
  const auto a = run("10 20\n20 30\n30 10\n30 40\n");
  const auto b = run("40 30\n10 30\n30 20\n20 10\n");  // reversed, reordered
  EXPECT_EQ(a.meta.fingerprint, b.meta.fingerprint)
      << "same graph, same ids => same canonical artifact";

  const auto c = run("10 20\n20 31\n31 10\n31 40\n");  // 30 renamed to 31
  EXPECT_EQ(a.meta.fingerprint, c.meta.fingerprint)
      << "compaction is by id rank, not id value";
}

TEST(IngestCanonical, TriangulationAddsFlaggedApexes) {
  ingest::IngestOptions opts;
  opts.triangulate = true;
  // A 4-cycle: two non-triangular faces, so triangulation must add apexes.
  const auto res = run("1 2\n2 3\n3 4\n4 1\n", opts);
  EXPECT_GT(res.stats.apexes, 0);
  EXPECT_EQ(res.graph.num_nodes(), 4 + res.stats.apexes);
  EXPECT_TRUE(planar::validate_embedding(res.graph));
}

TEST(IngestCanonical, TriangulateRejectsGraphsThatAreNot2Connected) {
  ingest::IngestOptions opts;
  opts.triangulate = true;
  // A path is planar but has cut vertices: apex triangulation would need
  // a parallel apex edge, so admission rejects it with a typed code.
  const auto e = reject("1 2\n2 3\n3 4\n", opts);
  EXPECT_EQ(e.code(), ingest::IngestErrorCode::kNotBiconnected);
  EXPECT_EQ(static_cast<int>(e.code()), 10);
  EXPECT_STREQ(e.what(),
               "ingest rejected [not-biconnected]: graph is not 2-connected "
               "(--triangulate needs a 2-connected graph)");
  // A single edge and two triangles glued at a vertex fail the same way.
  EXPECT_EQ(reject("1 2\n", opts).code(),
            ingest::IngestErrorCode::kNotBiconnected);
  EXPECT_EQ(reject("1 2\n2 3\n3 1\n3 4\n4 5\n5 3\n", opts).code(),
            ingest::IngestErrorCode::kNotBiconnected);
  // Without triangulation the same text is admitted as is.
  EXPECT_EQ(run("1 2\n2 3\n3 4\n").graph.num_edges(), 3);
}

// ------------------------------------------------------ corpus round-trip -

TEST(IngestCorpus, AcceptedGraphLandsContentAddressedAndReloads) {
  ScratchDir dir("corpus");
  ingest::IngestOptions opts;
  opts.corpus_root = dir.path();
  opts.family = "roadnet";
  const auto res = run("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n", opts);
  ASSERT_FALSE(res.corpus_file.empty());
  EXPECT_EQ(res.corpus_file,
            io::corpus_path(dir.path(), "roadnet", res.meta.fingerprint));
  EXPECT_TRUE(fs::exists(res.corpus_file));

  // Reload through the generic artifact path: fingerprint verified.
  const io::LoadedGraph loaded = io::load_graph(res.corpus_file);
  EXPECT_EQ(core::topology_fingerprint(loaded.graph), res.meta.fingerprint);
  EXPECT_EQ(loaded.meta.family, "roadnet");
  EXPECT_EQ(loaded.graph.num_nodes(), res.graph.num_nodes());

  // And through the corpus listing.
  const auto entries = io::list_corpus(dir.path());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].fingerprint, res.meta.fingerprint);

  // Ingesting the same bytes again is a no-op (same address).
  ingest::IngestOptions again = opts;
  const auto res2 = run("0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n", again);
  EXPECT_EQ(res2.corpus_file, res.corpus_file);
  EXPECT_EQ(io::list_corpus(dir.path()).size(), 1u);
}

TEST(IngestCorpus, DisconnectedInputsAreAccepted) {
  const auto res = run("1 2\n2 3\n10 11\n11 12\n12 10\n");
  EXPECT_EQ(res.graph.num_nodes(), 6);
  EXPECT_EQ(res.graph.num_edges(), 5);
}

}  // namespace
}  // namespace plansep
