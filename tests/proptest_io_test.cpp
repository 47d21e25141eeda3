// Property suite for the binary artifact layer (src/io/): save → load →
// save byte-identity across every generator family, oracle equality of
// loaded embeddings, corpus addressing, and corruption handling
// (truncation, bit flips → CRC failure, version skew → clean reject).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/plansep.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "query/index.hpp"
#include "separator/hierarchy.hpp"
#include "shortcuts/partwise.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> graph_bytes(const planar::GeneratedGraph& gg,
                                      std::uint64_t seed) {
  io::ArtifactMeta meta;
  meta.family = gg.name;
  meta.seed = seed;
  meta.fingerprint = core::topology_fingerprint(gg.graph);
  return io::encode_graph_artifact(gg.graph, &meta);
}

// Neighbor sequences in rotation order — the full combinatorial embedding,
// independent of dart/edge numbering.
std::vector<std::vector<planar::NodeId>> rotations_of(
    const planar::EmbeddedGraph& g) {
  std::vector<std::vector<planar::NodeId>> out(
      static_cast<std::size_t>(g.num_nodes()));
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const planar::DartId d : g.rotation(v)) {
      out[static_cast<std::size_t>(v)].push_back(g.head(d));
    }
  }
  return out;
}

TEST(ProptestIo, SaveLoadSaveByteIdentityAcrossFamilies) {
  for (const planar::Family f : planar::all_families()) {
    for (const int n : {24, 61}) {
      for (const std::uint64_t seed : {1ULL, 7ULL}) {
        const auto gg = planar::make_instance(f, n, seed);
        const auto bytes1 = graph_bytes(gg, seed);
        const io::LoadedGraph loaded = io::decode_graph_artifact(bytes1);
        const auto bytes2 =
            io::encode_graph_artifact(loaded.graph, &loaded.meta);
        EXPECT_EQ(bytes1, bytes2)
            << planar::family_name(f) << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(ProptestIo, LoadedEmbeddingEqualsOriginal) {
  for (const planar::Family f : planar::all_families()) {
    const auto gg = planar::make_instance(f, 40, 3);
    const io::LoadedGraph loaded =
        io::decode_graph_artifact(graph_bytes(gg, 3));
    ASSERT_EQ(loaded.graph.num_nodes(), gg.graph.num_nodes());
    ASSERT_EQ(loaded.graph.num_edges(), gg.graph.num_edges());
    EXPECT_EQ(rotations_of(loaded.graph), rotations_of(gg.graph))
        << planar::family_name(f);
    EXPECT_EQ(core::topology_fingerprint(loaded.graph),
              core::topology_fingerprint(gg.graph));
    EXPECT_EQ(loaded.meta.family, gg.name);
    EXPECT_EQ(loaded.meta.seed, 3u);
  }
}

TEST(ProptestIo, SeparatorAndDfsArtifactsRoundTrip) {
  const auto gg = planar::make_instance(planar::Family::kGrid, 36, 1);
  const SeparatorRun sep = compute_cycle_separator(gg.graph, gg.root_hint);
  const io::SeparatorArtifact sa{sep.separator, sep.cost};
  const auto sep_bytes = io::encode_separator(sa);
  const io::SeparatorArtifact sa2 = io::decode_separator(sep_bytes);
  EXPECT_EQ(sa2.part.path, sa.part.path);
  EXPECT_EQ(sa2.part.phase, sa.part.phase);
  EXPECT_EQ(sa2.cost.measured, sa.cost.measured);
  EXPECT_EQ(sa2.cost.charged, sa.cost.charged);
  EXPECT_EQ(io::encode_separator(sa2), sep_bytes);

  const DfsRun dfs = compute_dfs_tree(gg.graph, gg.root_hint);
  io::DfsArtifact da = io::dfs_artifact_from_tree(dfs.build.tree);
  da.phases = dfs.build.phases;
  da.cost = dfs.build.cost;
  const auto dfs_bytes = io::encode_dfs(da);
  const io::DfsArtifact da2 = io::decode_dfs(dfs_bytes);
  EXPECT_EQ(da2.parent, da.parent);
  EXPECT_EQ(da2.depth, da.depth);
  EXPECT_EQ(da2.phases, da.phases);
  EXPECT_EQ(io::encode_dfs(da2), dfs_bytes);
}

TEST(ProptestIo, HierarchyAndQueryIndexRoundTripAcrossFamilies) {
  // assemble ∘ parse = identity for the kHierarchy and kQueryIndex
  // sections, and re-encoding the decoded values reproduces the payload
  // bytes — the canonical-encoding property the query cache relies on.
  for (const planar::Family f : planar::all_families()) {
    const auto gg = planar::make_instance(f, 48, 5);
    shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
    const separator::SeparatorHierarchy h =
        separator::build_hierarchy(gg.graph, engine, /*leaf_size=*/8);
    const query::QueryIndex qi =
        query::build_query_index(gg.graph, h, /*leaf_size=*/8);

    const auto h_bytes =
        io::encode_hierarchy({gg.graph.num_nodes(), h});
    const auto q_bytes = io::encode_query_index(qi);

    io::Artifact a;
    a.add(io::SectionId::kHierarchy, h_bytes);
    a.add(io::SectionId::kQueryIndex, q_bytes);
    const auto container = io::assemble(a);
    const io::Artifact b = io::parse(container);
    EXPECT_EQ(io::assemble(b), container) << planar::family_name(f);

    const io::HierarchyArtifact h2 =
        io::decode_hierarchy(b.find(io::SectionId::kHierarchy)->bytes);
    EXPECT_EQ(io::encode_hierarchy(h2), h_bytes) << planar::family_name(f);
    EXPECT_EQ(h2.hierarchy.pieces.size(), h.pieces.size());
    EXPECT_EQ(h2.hierarchy.in_separator, h.in_separator);
    for (planar::NodeId v = 0; v < gg.graph.num_nodes(); ++v) {
      EXPECT_EQ(h2.hierarchy.leaf_of(v), h.leaf_of(v))
          << planar::family_name(f) << " v=" << v;
    }

    const query::QueryIndex qi2 =
        io::decode_query_index(b.find(io::SectionId::kQueryIndex)->bytes);
    EXPECT_EQ(io::encode_query_index(qi2), q_bytes)
        << planar::family_name(f);
  }
}

TEST(ProptestIo, CorruptHierarchyAndIndexPayloadsAreRejected) {
  const auto gg = planar::make_instance(planar::Family::kGrid, 25, 1);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  const separator::SeparatorHierarchy h =
      separator::build_hierarchy(gg.graph, engine, 4);
  const query::QueryIndex qi = query::build_query_index(gg.graph, h, 4);

  auto h_bytes = io::encode_hierarchy({gg.graph.num_nodes(), h});
  h_bytes.resize(h_bytes.size() / 2);  // truncation
  EXPECT_THROW(io::decode_hierarchy(h_bytes), io::FormatError);

  auto q_bytes = io::encode_query_index(qi);
  q_bytes.push_back(0);  // trailing garbage
  EXPECT_THROW(io::decode_query_index(q_bytes), io::FormatError);
}

// decode_query_index checks every id and offset the query walk
// dereferences unchecked: each mutation of a real index is a FormatError,
// never an index that reads outside its tables.
TEST(ProptestIo, QueryIndexIdsAndOffsetsAreBoundsChecked) {
  const auto gg = planar::make_instance(planar::Family::kGrid, 100, 1);
  shortcuts::PartwiseEngine engine(gg.graph, gg.root_hint);
  const separator::SeparatorHierarchy h =
      separator::build_hierarchy(gg.graph, engine, 8);
  const query::QueryIndex qi = query::build_query_index(gg.graph, h, 8);
  EXPECT_NO_THROW(io::decode_query_index(io::encode_query_index(qi)));
  ASSERT_FALSE(qi.sep_nodes.empty());
  const auto leaf_node = static_cast<std::size_t>(
      std::find_if(qi.leaf_pos.begin(), qi.leaf_pos.end(),
                   [](std::int32_t pos) { return pos >= 0; }) -
      qi.leaf_pos.begin());
  ASSERT_LT(leaf_node, qi.leaf_pos.size());

  const std::vector<
      std::pair<const char*, std::function<void(query::QueryIndex&)>>>
      mutations{
          {"block_off[0]=2^40", [](auto& q) { q.block_off[0] = 1LL << 40; }},
          {"block_off[0]=-1", [](auto& q) { q.block_off[0] = -1; }},
          {"sep_nodes[0]=2^30", [](auto& q) { q.sep_nodes[0] = 1 << 30; }},
          {"leaf_pos=2^20",
           [&](auto& q) { q.leaf_pos[leaf_node] = 1 << 20; }},
          {"piece_level[0]=2^20",
           [](auto& q) { q.piece_level[0] = 1 << 20; }},
      };
  for (const auto& [name, mutate] : mutations) {
    query::QueryIndex bad = qi;
    mutate(bad);
    EXPECT_THROW(io::decode_query_index(io::encode_query_index(bad)),
                 io::FormatError)
        << name;
  }
}

TEST(ProptestIo, FileRoundTripAndCorpusAddressing) {
  ScratchDir dir("corpus");
  const auto gg = planar::make_instance(planar::Family::kTriangulation, 50, 9);
  const std::uint64_t fp = core::topology_fingerprint(gg.graph);

  const std::string stored =
      io::store_in_corpus(dir.path(), "triangulation", gg.graph, 9);
  EXPECT_EQ(stored, io::corpus_path(dir.path(), "triangulation", fp));
  EXPECT_TRUE(fs::exists(stored));
  // Content-addressed: storing again is a no-op on the same path.
  EXPECT_EQ(io::store_in_corpus(dir.path(), "triangulation", gg.graph, 9),
            stored);

  const io::LoadedGraph loaded =
      io::load_from_corpus(dir.path(), "triangulation", fp);
  EXPECT_EQ(core::topology_fingerprint(loaded.graph), fp);

  const auto entries = io::list_corpus(dir.path());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].family, "triangulation");
  EXPECT_EQ(entries[0].fingerprint, fp);
  EXPECT_EQ(entries[0].path, stored);
}

// Only regular files are read: opening a FIFO would block its reader
// until a writer came, and a directory would size as garbage.
TEST(ProptestIo, ReadFileRefusesFifosAndDirectories) {
  ScratchDir dir("special");
  const std::string fifo = dir.path() + "/pipe.psg";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_THROW(io::read_file(fifo), io::FormatError);
  EXPECT_THROW(io::load_graph(fifo), io::FormatError);
  EXPECT_THROW(io::read_file(dir.path()), io::FormatError);
  EXPECT_THROW(io::read_file(dir.path() + "/absent.psg"), io::FormatError);
}

TEST(ProptestIo, TruncatedFileIsRejected) {
  const auto gg = planar::make_instance(planar::Family::kCylinder, 30, 2);
  const auto bytes = graph_bytes(gg, 2);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{15}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(io::parse(cut), io::FormatError) << "kept " << keep;
  }
}

TEST(ProptestIo, FlippedPayloadByteFailsCrcWithDiagnosis) {
  const auto gg = planar::make_instance(planar::Family::kOuterplanar, 30, 4);
  auto bytes = graph_bytes(gg, 4);
  // Flip one byte in the last section's payload (the file tail is payload
  // bytes by construction).
  auto corrupted = bytes;
  corrupted[corrupted.size() - 3] ^= 0x40;
  try {
    io::parse(corrupted);
    FAIL() << "corrupted artifact parsed";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(ProptestIo, WrongVersionIsCleanlyRejected) {
  const auto gg = planar::make_instance(planar::Family::kGrid, 16, 1);
  auto bytes = graph_bytes(gg, 1);
  bytes[8] = static_cast<std::uint8_t>(io::kFormatVersion + 1);  // LE u32
  try {
    io::parse(bytes);
    FAIL() << "future-version artifact parsed";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(ProptestIo, BadMagicIsRejected) {
  const auto gg = planar::make_instance(planar::Family::kGrid, 16, 1);
  auto bytes = graph_bytes(gg, 1);
  bytes[4] = '\n';  // the classic text-mode \r\n mangling
  EXPECT_THROW(io::parse(bytes), io::FormatError);
}

TEST(ProptestIo, UnknownSectionsSurviveReassembly) {
  io::Artifact a;
  a.add(static_cast<io::SectionId>(900), {1, 2, 3});
  a.add(io::SectionId::kMeta, io::encode_meta({"x", 5, 0}));
  const auto bytes = io::assemble(a);
  const io::Artifact b = io::parse(bytes);
  ASSERT_EQ(b.sections.size(), 2u);
  EXPECT_EQ(static_cast<std::uint32_t>(b.sections[0].id), 900u);
  EXPECT_EQ(b.sections[0].bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(io::assemble(b), bytes);
}

// Every reader that needs a section fails the same way when it is absent
// (io::Artifact::require), the graph loader included.
TEST(ProptestIo, MissingSectionIsNamedInTheError) {
  const auto bytes = io::assemble_single(io::SectionId::kMeta,
                                         io::encode_meta({"x", 5, 0}));
  const auto message = [&](const std::function<void()>& read) {
    try {
      read();
    } catch (const io::FormatError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { io::decode_graph_artifact(bytes); }),
            "artifact lacks kGraph");
  EXPECT_EQ(message([&] {
              io::parse(bytes).require(static_cast<io::SectionId>(900));
            }),
            "artifact lacks section 900");
  EXPECT_EQ(io::parse(bytes).require(io::SectionId::kMeta),
            io::encode_meta({"x", 5, 0}));
}

TEST(ProptestIo, FingerprintMismatchIsRejectedOnLoad) {
  // encode_graph_artifact stamps the true fingerprint itself, so a lying
  // meta section has to be assembled by hand.
  const auto gg = planar::make_instance(planar::Family::kGrid, 16, 1);
  io::Artifact a;
  a.add(io::SectionId::kMeta, io::encode_meta({"grid", 1, 0xdeadbeefULL}));
  a.add(io::SectionId::kGraph, io::encode_graph(gg.graph));
  EXPECT_THROW(io::decode_graph_artifact(io::assemble(a)), io::FormatError);
}

}  // namespace
}  // namespace plansep
