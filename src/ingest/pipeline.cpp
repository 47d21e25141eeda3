#include "ingest/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/fingerprint.hpp"
#include "io/corpus.hpp"
#include "planar/dmp_embedder.hpp"
#include "planar/triangulate.hpp"

namespace plansep::ingest {

namespace {

using planar::NodeId;

}  // namespace

IngestResult ingest_text(std::istream& in, const IngestOptions& opts) {
  ReaderLimits limits;
  limits.max_line_bytes = opts.max_line_bytes;
  limits.max_edges = opts.max_edges < 0
                         ? 0
                         : static_cast<std::size_t>(opts.max_edges);
  const RawEdgeList raw = read_untrusted_edge_list(in, opts.format, limits);

  IngestResult out;
  out.stats.lines = raw.lines;
  out.stats.comment_lines = raw.comment_lines;
  out.stats.input_edges = raw.edges.size();

  if (raw.declared_edges >= 0 &&
      raw.declared_edges != static_cast<long long>(raw.edges.size())) {
    throw IngestError(
        IngestErrorCode::kParse, 0,
        "dimacs header declares " + std::to_string(raw.declared_edges) +
            " edges, input has " + std::to_string(raw.edges.size()));
  }

  // Canonicalize: self-loop policy first, then dense ids by ascending
  // original id (rank order, so the canonical graph — and hence the
  // fingerprint — is a pure function of the edge *set*, independent of
  // line order and edge orientation), edges normalized (min, max).
  std::vector<std::pair<long long, long long>> kept;
  kept.reserve(raw.edges.size());
  for (const auto& [ou, ov] : raw.edges) {
    if (ou == ov) {
      if (opts.drop_self_loops) {
        ++out.stats.dropped_self_loops;
        continue;
      }
      throw IngestError(IngestErrorCode::kSelfLoop, 0,
                        "self-loop at node " + std::to_string(ou) +
                            " (pass --drop-self-loops to drop)");
    }
    kept.push_back({ou, ov});
  }
  std::vector<long long> original_id;
  original_id.reserve(kept.size() * 2);
  for (const auto& [ou, ov] : kept) {
    original_id.push_back(ou);
    original_id.push_back(ov);
  }
  std::sort(original_id.begin(), original_id.end());
  original_id.erase(std::unique(original_id.begin(), original_id.end()),
                    original_id.end());
  const std::int64_t node_cap =
      std::min<std::int64_t>(std::max<std::int64_t>(opts.max_nodes, 0),
                             std::numeric_limits<NodeId>::max());
  if (static_cast<std::int64_t>(original_id.size()) > node_cap) {
    throw IngestError(IngestErrorCode::kNodeLimit, 0,
                      "distinct node count " +
                          std::to_string(original_id.size()) +
                          " exceeds max_nodes=" +
                          std::to_string(opts.max_nodes));
  }
  std::unordered_map<long long, NodeId> rank;
  rank.reserve(original_id.size());
  for (std::size_t i = 0; i < original_id.size(); ++i) {
    rank.emplace(original_id[i], static_cast<NodeId>(i));
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(kept.size());
  for (const auto& [ou, ov] : kept) {
    NodeId u = rank.at(ou);
    NodeId v = rank.at(ov);
    if (u > v) std::swap(u, v);
    edges.push_back({u, v});
  }
  std::sort(edges.begin(), edges.end());
  const auto dup = std::adjacent_find(edges.begin(), edges.end());
  if (dup != edges.end() && !opts.drop_duplicate_edges) {
    throw IngestError(
        IngestErrorCode::kDuplicateEdge, 0,
        "duplicate edge {" +
            std::to_string(original_id[static_cast<std::size_t>(dup->first)]) +
            ", " +
            std::to_string(original_id[static_cast<std::size_t>(dup->second)]) +
            "} (pass --drop-duplicates to drop)");
  }
  const std::size_t before = edges.size();
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  out.stats.dropped_duplicates = before - edges.size();

  if (edges.empty()) {
    throw IngestError(IngestErrorCode::kEmpty, 0, "no edges in input");
  }
  if (raw.declared_nodes >= 0 &&
      static_cast<long long>(original_id.size()) > raw.declared_nodes) {
    throw IngestError(
        IngestErrorCode::kParse, 0,
        "dimacs header declares " + std::to_string(raw.declared_nodes) +
            " nodes, input references " +
            std::to_string(original_id.size()));
  }

  // Admission proper: the hardened DMP planarity check.
  const NodeId n = static_cast<NodeId>(original_id.size());
  planar::PlanarityResult check =
      planar::planar_embedding_with_witness(n, edges);
  if (!check.planar()) {
    std::vector<IngestError::Edge> witness;
    witness.reserve(check.witness.size());
    for (const auto& [u, v] : check.witness) {
      witness.push_back({original_id[static_cast<std::size_t>(u)],
                         original_id[static_cast<std::size_t>(v)]});
    }
    const std::string detail = "graph is not planar (witness: " +
                               std::to_string(witness.size()) +
                               "-edge non-planar subgraph)";
    throw IngestError(IngestErrorCode::kNonPlanar, 0, detail,
                      std::move(witness));
  }

  out.graph = std::move(*check.embedding);
  if (opts.triangulate) {
    if (!planar::triangulable(out.graph)) {
      throw IngestError(IngestErrorCode::kNotBiconnected, 0,
                        "graph is not 2-connected (--triangulate needs a "
                        "2-connected graph)");
    }
    planar::Triangulation tri = planar::triangulate_with_apexes(out.graph);
    out.stats.apexes = tri.apexes;
    out.graph = std::move(tri.graph);
  }

  out.meta.family = opts.family;
  out.meta.seed = 0;
  out.meta.fingerprint = core::topology_fingerprint(out.graph);
  if (!opts.corpus_root.empty()) {
    out.corpus_file =
        io::store_in_corpus(opts.corpus_root, opts.family, out.graph);
  }
  return out;
}

IngestResult ingest_string(std::string_view text, const IngestOptions& opts) {
  std::istringstream in{std::string(text)};
  return ingest_text(in, opts);
}

IngestResult ingest_file(const std::string& path, const IngestOptions& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw io::FormatError("ingest: cannot open '" + path + "'");
  }
  return ingest_text(in, opts);
}

}  // namespace plansep::ingest
