#pragma once

/// \file
/// The versioned binary artifact format: sectioned container with
/// per-section CRC32, plus codecs for embedded graphs, separator results
/// and DFS trees (format layout in DESIGN.md §9).

// The .psg artifact container and its payload codecs.
//
// Layout (all integers little-endian; DESIGN.md §9 is the normative
// description):
//
//   magic[8] = "PSGB\r\n\x1a\n"     (PNG-style: text-mode mangling trips it)
//   u32 format version               (kFormatVersion; older readers reject
//                                     newer files cleanly)
//   u32 section count
//   section table, one entry per section, in file order:
//     u32 section id   (SectionId)
//     u64 offset       (from file start)
//     u64 length       (payload bytes)
//     u32 crc32        (of the payload)
//   section payloads, concatenated in table order.
//
// Sections are independent: a file may carry just a graph (a corpus
// instance), or a graph plus separator/DFS results (a cached pipeline
// artifact). Unknown section ids are preserved by parse/assemble and
// ignored by the typed accessors, so the format is forward-extensible
// without a version bump. Encoding is canonical — one byte sequence per
// value — which is what makes save → load → save byte-identity (asserted
// by tests/proptest_io_test.cpp) a meaningful property.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/level_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "dfs/partial_tree.hpp"
#include "io/binary.hpp"
#include "planar/embedded_graph.hpp"
#include "query/index.hpp"
#include "separator/engine.hpp"
#include "separator/hierarchy.hpp"
#include "shortcuts/cost.hpp"

namespace plansep::io {

/// Current artifact format version; bumped on any incompatible layout
/// change. Readers reject other versions with a clean FormatError.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Section identifiers of the container. Values are part of the on-disk
/// format — append, never renumber.
enum class SectionId : std::uint32_t {
  kMeta = 1,       ///< provenance: family name, spec seed, fingerprint
  kGraph = 2,      ///< rotation system (and edge list) of the instance
  kCoords = 3,     ///< optional straight-line coordinates
  kSeparator = 4,  ///< one part's cycle-separator result + cost
  kDfsTree = 5,    ///< DFS tree (parents/depths) + build cost
  kHierarchy = 6,  ///< recursive separator decomposition (pieces + cost)
  kQueryIndex = 7, ///< distance-oracle index over a kHierarchy section
  kSpanningTree = 8,    ///< global BFS spanning tree (task-graph sub-artifact)
  kLevelSeparator = 9,  ///< BFS-level baseline separator result
};

/// One decoded section: id plus raw payload (CRC already verified).
struct Section {
  SectionId id{};                    ///< section id (may be unknown)
  std::vector<std::uint8_t> bytes;   ///< verified payload
};

/// A parsed artifact: format version plus sections in file order.
struct Artifact {
  std::uint32_t version = kFormatVersion;  ///< container format version
  std::vector<Section> sections;           ///< sections in file order

  /// First section with the given id, or nullptr.
  const Section* find(SectionId id) const;
  /// Payload of the first section with the given id. Throws FormatError
  /// naming the section's enumerator (e.g. "artifact lacks kGraph") when
  /// there is none.
  const std::vector<std::uint8_t>& require(SectionId id) const;
  /// Appends a section.
  void add(SectionId id, std::vector<std::uint8_t> bytes);
};

/// Assembles the container byte stream (magic, version, section table with
/// CRCs, payloads). Deterministic: same artifact, same bytes.
std::vector<std::uint8_t> assemble(const Artifact& a);

/// Assembles a container holding one section, `payload` under `id` (the
/// shape of every job stage's artifact).
std::vector<std::uint8_t> assemble_single(SectionId id,
                                          std::vector<std::uint8_t> payload);

/// Parses and fully verifies a container: magic, version, table sanity
/// (offsets in bounds, payloads non-overlapping and in order), and every
/// section's CRC. Throws FormatError with a diagnosis on any violation.
Artifact parse(const std::vector<std::uint8_t>& bytes);

// ------------------------------------------------------------- payloads --

/// Provenance metadata persisted alongside a graph.
struct ArtifactMeta {
  std::string family;             ///< generator family name ("" if unknown)
  std::uint64_t seed = 0;         ///< generation seed (0 if unknown)
  std::uint64_t fingerprint = 0;  ///< core::topology_fingerprint of kGraph
};

/// A persisted separator result: the engine output for one part plus its
/// round cost (everything a warm-cache batch row needs).
struct SeparatorArtifact {
  separator::PartSeparator part;  ///< marked path, endpoints, phase
  shortcuts::RoundCost cost;      ///< setup + part build + engine cost
};

/// A persisted DFS result: parent/depth arrays plus build statistics.
struct DfsArtifact {
  planar::NodeId root = 0;             ///< DFS root
  std::vector<planar::NodeId> parent;  ///< parent per node (root: kNoNode)
  std::vector<std::int32_t> depth;     ///< depth per node (root: 0)
  std::int32_t phases = 0;             ///< outer phases the builder ran
  shortcuts::RoundCost cost;           ///< full build cost
};

std::vector<std::uint8_t> encode_meta(const ArtifactMeta& m);  ///< kMeta codec
/// Decodes a kMeta payload (throws FormatError on malformed bytes).
ArtifactMeta decode_meta(const std::vector<std::uint8_t>& bytes);

/// Encodes the rotation system: node/edge counts, the edge endpoint
/// arrays, and every vertex's clockwise dart rotation.
std::vector<std::uint8_t> encode_graph(const planar::EmbeddedGraph& g);
/// Decodes a kGraph payload and revalidates it structurally (endpoint
/// ranges, rotation consistency) via EmbeddedGraph::from_rotations.
planar::EmbeddedGraph decode_graph(const std::vector<std::uint8_t>& bytes);

/// Encodes straight-line coordinates (one Point per node).
std::vector<std::uint8_t> encode_coords(const std::vector<planar::Point>& c);
/// Decodes a kCoords payload.
std::vector<planar::Point> decode_coords(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_separator(const SeparatorArtifact& s);  ///< kSeparator codec
/// Decodes a kSeparator payload.
SeparatorArtifact decode_separator(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_dfs(const DfsArtifact& d);  ///< kDfsTree codec
/// Decodes a kDfsTree payload.
DfsArtifact decode_dfs(const std::vector<std::uint8_t>& bytes);

/// A persisted global BFS spanning tree — the job stages' most shared
/// sub-artifact (one tree feeds the deterministic separator, the baseline
/// level separator, the DFS builder and the query hierarchy).
struct SpanningTreeArtifact {
  congest::BfsResult bfs;  ///< root, parent darts, depths, wave cost
};

std::vector<std::uint8_t> encode_spanning_tree(const SpanningTreeArtifact& t);  ///< kSpanningTree codec
/// Decodes a kSpanningTree payload (structure checks; dart ids are
/// validated against the graph by the consumer that binds them).
SpanningTreeArtifact decode_spanning_tree(const std::vector<std::uint8_t>& bytes);

/// A persisted BFS-level baseline separator (Lipton–Tarjan levels half).
struct LevelSeparatorArtifact {
  baselines::LevelSeparatorResult result;  ///< found flag, nodes, balance
};

std::vector<std::uint8_t> encode_level_separator(const LevelSeparatorArtifact& s);  ///< kLevelSeparator codec
/// Decodes a kLevelSeparator payload.
LevelSeparatorArtifact decode_level_separator(const std::vector<std::uint8_t>& bytes);

/// A persisted separator hierarchy: the node count plus the pieces and
/// build cost. Only the pieces are encoded; the decoder restores every
/// derived table through SeparatorHierarchy::rebuild_derived.
struct HierarchyArtifact {
  planar::NodeId num_nodes = 0;            ///< graph size the pieces cover
  separator::SeparatorHierarchy hierarchy; ///< pieces + cost (+ derived)
};

std::vector<std::uint8_t> encode_hierarchy(const HierarchyArtifact& h);  ///< kHierarchy codec
/// Decodes a kHierarchy payload, validating piece structure (parents
/// precede children, node ids in range) and rebuilding derived tables.
HierarchyArtifact decode_hierarchy(const std::vector<std::uint8_t>& bytes);

std::vector<std::uint8_t> encode_query_index(const query::QueryIndex& qi);  ///< kQueryIndex codec
/// Decodes a kQueryIndex payload, validating array sizes, offsets and ids.
query::QueryIndex decode_query_index(const std::vector<std::uint8_t>& bytes);

/// Extracts a DfsArtifact from a built tree (the persistence direction).
DfsArtifact dfs_artifact_from_tree(const dfs::PartialDfsTree& tree);

// ----------------------------------------------------------- file level --

/// Serializes graph (+ coordinates when present, + meta when given) into
/// a single-instance artifact container.
std::vector<std::uint8_t> encode_graph_artifact(
    const planar::EmbeddedGraph& g, const ArtifactMeta* meta = nullptr);

/// A loaded graph instance: the embedding plus its provenance.
struct LoadedGraph {
  planar::EmbeddedGraph graph;  ///< decoded embedding (coords restored)
  ArtifactMeta meta;            ///< provenance (defaulted when absent)
};

/// Parses a graph artifact. Requires a kGraph section; verifies that the
/// stored fingerprint (when present) matches the decoded rotation system.
LoadedGraph decode_graph_artifact(const std::vector<std::uint8_t>& bytes);

/// Writes `bytes` to `path` atomically enough for our purposes (tmp file
/// + rename). Throws FormatError on I/O failure.
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Reads a whole regular file; throws FormatError if it is unreadable or
/// anything but a regular file.
std::vector<std::uint8_t> read_file(const std::string& path);

/// encode_graph_artifact + write_file.
void save_graph(const std::string& path, const planar::EmbeddedGraph& g,
                const ArtifactMeta* meta = nullptr);

/// read_file + decode_graph_artifact.
LoadedGraph load_graph(const std::string& path);

}  // namespace plansep::io
