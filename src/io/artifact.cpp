#include "io/artifact.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/fingerprint.hpp"
#include "util/check.hpp"

namespace plansep::io {

namespace {

// PNG-style magic: text-mode newline translation or a stray chop mangles
// at least one of the trailing bytes, so misuse fails at the first check.
constexpr std::uint8_t kMagic[8] = {'P', 'S', 'G', 'B', '\r', '\n', 0x1a, '\n'};

constexpr std::size_t kHeaderBytes = sizeof kMagic + 4 + 4;  // magic+ver+count
constexpr std::size_t kTableEntryBytes = 4 + 8 + 8 + 4;      // id+off+len+crc
constexpr std::uint32_t kMaxSections = 1024;

[[noreturn]] void malformed(const std::string& what) {
  throw FormatError("malformed artifact: " + what);
}

// The enumerator name of a section id, for diagnostics.
std::string section_name(SectionId id) {
  switch (id) {
    case SectionId::kMeta: return "kMeta";
    case SectionId::kGraph: return "kGraph";
    case SectionId::kCoords: return "kCoords";
    case SectionId::kSeparator: return "kSeparator";
    case SectionId::kDfsTree: return "kDfsTree";
    case SectionId::kHierarchy: return "kHierarchy";
    case SectionId::kQueryIndex: return "kQueryIndex";
    case SectionId::kSpanningTree: return "kSpanningTree";
    case SectionId::kLevelSeparator: return "kLevelSeparator";
  }
  return "section " + std::to_string(static_cast<std::uint32_t>(id));
}

}  // namespace

const Section* Artifact::find(SectionId id) const {
  for (const Section& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

const std::vector<std::uint8_t>& Artifact::require(SectionId id) const {
  const Section* s = find(id);
  if (s == nullptr) throw FormatError("artifact lacks " + section_name(id));
  return s->bytes;
}

void Artifact::add(SectionId id, std::vector<std::uint8_t> bytes) {
  sections.push_back(Section{id, std::move(bytes)});
}

std::vector<std::uint8_t> assemble_single(SectionId id,
                                          std::vector<std::uint8_t> payload) {
  Artifact a;
  a.add(id, std::move(payload));
  return assemble(a);
}

std::vector<std::uint8_t> assemble(const Artifact& a) {
  ByteWriter w;
  w.bytes(kMagic, sizeof kMagic);
  w.u32(a.version);
  w.u32(static_cast<std::uint32_t>(a.sections.size()));
  std::uint64_t offset =
      kHeaderBytes + kTableEntryBytes * a.sections.size();
  for (const Section& s : a.sections) {
    w.u32(static_cast<std::uint32_t>(s.id));
    w.u64(offset);
    w.u64(s.bytes.size());
    w.u32(crc32(s.bytes.data(), s.bytes.size()));
    offset += s.bytes.size();
  }
  for (const Section& s : a.sections) {
    w.bytes(s.bytes.data(), s.bytes.size());
  }
  return w.take();
}

Artifact parse(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (bytes.size() < kHeaderBytes) malformed("shorter than the header");
  for (std::size_t i = 0; i < sizeof kMagic; ++i) {
    if (r.u8() != kMagic[i]) {
      malformed("bad magic at byte " + std::to_string(i));
    }
  }
  Artifact a;
  a.version = r.u32();
  if (a.version != kFormatVersion) {
    throw FormatError("unsupported artifact format version " +
                      std::to_string(a.version) + " (this build reads " +
                      std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = r.u32();
  if (count > kMaxSections) {
    malformed("implausible section count " + std::to_string(count));
  }
  struct Entry {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t length;
    std::uint32_t crc;
  };
  std::vector<Entry> table(count);
  for (Entry& e : table) {
    e.id = r.u32();
    e.offset = r.u64();
    e.length = r.u64();
    e.crc = r.u32();
  }
  // The layout is canonical: payloads sit back-to-back, in table order,
  // immediately after the table, and the file ends with the last payload.
  // This is what makes parse ∘ assemble the identity on bytes.
  std::uint64_t expected = kHeaderBytes +
                           static_cast<std::uint64_t>(kTableEntryBytes) * count;
  for (const Entry& e : table) {
    if (e.offset != expected) {
      malformed("section " + std::to_string(e.id) + " at offset " +
                std::to_string(e.offset) + ", expected " +
                std::to_string(expected));
    }
    if (e.offset + e.length > bytes.size()) {
      malformed("section " + std::to_string(e.id) + " overruns the file");
    }
    expected += e.length;
  }
  if (expected != bytes.size()) {
    malformed(std::to_string(bytes.size() - expected) +
              " trailing byte(s) after the last section");
  }
  for (const Entry& e : table) {
    Section s;
    s.id = static_cast<SectionId>(e.id);
    s.bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(e.offset),
                   bytes.begin() + static_cast<std::ptrdiff_t>(e.offset) +
                       static_cast<std::ptrdiff_t>(e.length));
    const std::uint32_t got = crc32(s.bytes.data(), s.bytes.size());
    if (got != e.crc) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "section %u CRC mismatch: stored %08x, computed %08x",
                    e.id, e.crc, got);
      throw FormatError(std::string("corrupted artifact: ") + buf);
    }
    a.sections.push_back(std::move(s));
  }
  return a;
}

// ------------------------------------------------------------- payloads --

std::vector<std::uint8_t> encode_meta(const ArtifactMeta& m) {
  ByteWriter w;
  w.str(m.family);
  w.u64(m.seed);
  w.u64(m.fingerprint);
  return w.take();
}

ArtifactMeta decode_meta(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  ArtifactMeta m;
  m.family = r.str();
  m.seed = r.u64();
  m.fingerprint = r.u64();
  r.expect_exhausted("meta section");
  return m;
}

// The graph codec serializes the *abstract* embedding — every vertex's
// clockwise neighbor list — and decodes through from_rotations, which
// revalidates symmetry and rebuilds canonical dart/edge numbering. Node
// ids and rotation orders round-trip exactly (they are the embedding);
// edge ids are canonicalized, which is why persisted separator artifacts
// identify the closing edge but downstream consumers key on node ids.
std::vector<std::uint8_t> encode_graph(const planar::EmbeddedGraph& g) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(g.num_nodes()));
  w.u32(static_cast<std::uint32_t>(g.num_edges()));
  for (planar::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto rot = g.rotation(v);
    w.u32(static_cast<std::uint32_t>(rot.size()));
    for (const planar::DartId d : rot) {
      w.u32(static_cast<std::uint32_t>(g.head(d)));
    }
  }
  return w.take();
}

planar::EmbeddedGraph decode_graph(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint32_t n = r.u32();
  const std::uint32_t m = r.u32();
  if (n > (1u << 30)) malformed("implausible node count");
  std::vector<std::vector<planar::NodeId>> rot(n);
  std::uint64_t darts = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t deg = r.u32();
    rot[v].resize(deg);
    darts += deg;
    for (std::uint32_t i = 0; i < deg; ++i) {
      const std::uint32_t u = r.u32();
      if (u >= n) {
        malformed("graph section: neighbor " + std::to_string(u) +
                  " out of range at node " + std::to_string(v));
      }
      rot[v][i] = static_cast<planar::NodeId>(u);
    }
  }
  r.expect_exhausted("graph section");
  if (darts != 2ull * m) {
    malformed("graph section: degree sum " + std::to_string(darts) +
              " does not match edge count " + std::to_string(m));
  }
  try {
    return planar::EmbeddedGraph::from_rotations(rot);
  } catch (const CheckError& e) {
    malformed(std::string("graph section rejected: ") + e.what());
  }
}

std::vector<std::uint8_t> encode_coords(const std::vector<planar::Point>& c) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(c.size()));
  for (const planar::Point& p : c) {
    w.f64(p.x);
    w.f64(p.y);
  }
  return w.take();
}

std::vector<planar::Point> decode_coords(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const std::uint32_t n = r.u32();
  if (n > (1u << 30)) malformed("implausible coordinate count");
  std::vector<planar::Point> c(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    c[i].x = r.f64();
    c[i].y = r.f64();
  }
  r.expect_exhausted("coords section");
  return c;
}

namespace {

void encode_cost(ByteWriter& w, const shortcuts::RoundCost& c) {
  w.i64(c.measured);
  w.i64(c.charged);
  w.i64(c.pa_calls);
  w.i64(c.local_rounds);
}

shortcuts::RoundCost decode_cost(ByteReader& r) {
  shortcuts::RoundCost c;
  c.measured = r.i64();
  c.charged = r.i64();
  c.pa_calls = r.i64();
  c.local_rounds = r.i64();
  return c;
}

}  // namespace

std::vector<std::uint8_t> encode_separator(const SeparatorArtifact& s) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(s.part.path.size()));
  for (const planar::NodeId v : s.part.path) w.i32(v);
  w.i32(s.part.endpoint_a);
  w.i32(s.part.endpoint_b);
  w.i32(s.part.closing_edge);
  w.i32(s.part.phase);
  encode_cost(w, s.cost);
  return w.take();
}

SeparatorArtifact decode_separator(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  SeparatorArtifact s;
  const std::uint32_t len = r.u32();
  if (len > (1u << 30)) malformed("implausible separator path length");
  s.part.path.resize(len);
  for (std::uint32_t i = 0; i < len; ++i) s.part.path[i] = r.i32();
  s.part.endpoint_a = r.i32();
  s.part.endpoint_b = r.i32();
  s.part.closing_edge = r.i32();
  s.part.phase = r.i32();
  s.cost = decode_cost(r);
  r.expect_exhausted("separator section");
  return s;
}

std::vector<std::uint8_t> encode_dfs(const DfsArtifact& d) {
  PLANSEP_CHECK(d.parent.size() == d.depth.size());
  ByteWriter w;
  w.i32(d.root);
  w.u32(static_cast<std::uint32_t>(d.parent.size()));
  for (const planar::NodeId p : d.parent) w.i32(p);
  for (const std::int32_t x : d.depth) w.i32(x);
  w.i32(d.phases);
  encode_cost(w, d.cost);
  return w.take();
}

DfsArtifact decode_dfs(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  DfsArtifact d;
  d.root = r.i32();
  const std::uint32_t n = r.u32();
  if (n > (1u << 30)) malformed("implausible DFS tree size");
  d.parent.resize(n);
  d.depth.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) d.parent[i] = r.i32();
  for (std::uint32_t i = 0; i < n; ++i) d.depth[i] = r.i32();
  d.phases = r.i32();
  d.cost = decode_cost(r);
  r.expect_exhausted("dfs section");
  return d;
}

std::vector<std::uint8_t> encode_spanning_tree(const SpanningTreeArtifact& t) {
  PLANSEP_CHECK(t.bfs.parent_dart.size() == t.bfs.depth.size());
  ByteWriter w;
  w.i32(t.bfs.root);
  w.u32(static_cast<std::uint32_t>(t.bfs.parent_dart.size()));
  for (const planar::DartId d : t.bfs.parent_dart) w.i32(d);
  for (const int x : t.bfs.depth) w.i32(x);
  w.i32(t.bfs.height);
  w.i32(t.bfs.rounds);
  w.i64(t.bfs.messages);
  return w.take();
}

SpanningTreeArtifact decode_spanning_tree(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  SpanningTreeArtifact t;
  t.bfs.root = r.i32();
  const std::uint32_t n = r.u32();
  if (n > (1u << 30)) malformed("implausible spanning tree size");
  t.bfs.parent_dart.resize(n);
  t.bfs.depth.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) t.bfs.parent_dart[i] = r.i32();
  for (std::uint32_t i = 0; i < n; ++i) t.bfs.depth[i] = r.i32();
  t.bfs.height = r.i32();
  t.bfs.rounds = r.i32();
  t.bfs.messages = r.i64();
  r.expect_exhausted("spanning tree section");
  if (t.bfs.root < 0 || static_cast<std::uint32_t>(t.bfs.root) >= std::max(1u, n)) {
    malformed("spanning tree root out of range");
  }
  return t;
}

std::vector<std::uint8_t> encode_level_separator(const LevelSeparatorArtifact& s) {
  ByteWriter w;
  w.u8(s.result.found ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(s.result.separator.size()));
  for (const planar::NodeId v : s.result.separator) w.i32(v);
  w.f64(s.result.balance);
  w.i32(s.result.levels_used);
  return w.take();
}

LevelSeparatorArtifact decode_level_separator(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  LevelSeparatorArtifact s;
  s.result.found = r.u8() != 0;
  const std::uint32_t len = r.u32();
  if (len > (1u << 30)) malformed("implausible level separator size");
  s.result.separator.resize(len);
  for (std::uint32_t i = 0; i < len; ++i) s.result.separator[i] = r.i32();
  s.result.balance = r.f64();
  s.result.levels_used = r.i32();
  r.expect_exhausted("level separator section");
  return s;
}

std::vector<std::uint8_t> encode_hierarchy(const HierarchyArtifact& h) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(h.num_nodes));
  w.u32(static_cast<std::uint32_t>(h.hierarchy.pieces.size()));
  for (const separator::HierarchyPiece& p : h.hierarchy.pieces) {
    w.i32(p.level);
    w.i32(p.parent);
    w.u32(static_cast<std::uint32_t>(p.nodes.size()));
    for (const planar::NodeId v : p.nodes) w.i32(v);
    w.u32(static_cast<std::uint32_t>(p.separator.size()));
    for (const planar::NodeId v : p.separator) w.i32(v);
  }
  encode_cost(w, h.hierarchy.cost);
  return w.take();
}

HierarchyArtifact decode_hierarchy(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  HierarchyArtifact h;
  const std::uint32_t n = r.u32();
  if (n > (1u << 30)) malformed("implausible hierarchy node count");
  h.num_nodes = static_cast<planar::NodeId>(n);
  const std::uint32_t pieces = r.u32();
  if (pieces > (1u << 28)) malformed("implausible hierarchy piece count");
  h.hierarchy.pieces.resize(pieces);
  for (std::uint32_t i = 0; i < pieces; ++i) {
    separator::HierarchyPiece& p = h.hierarchy.pieces[i];
    p.level = r.i32();
    p.parent = r.i32();
    if (p.level < 0) malformed("hierarchy piece with negative level");
    if (p.parent < -1 || p.parent >= static_cast<std::int32_t>(i)) {
      malformed("hierarchy piece " + std::to_string(i) +
                " with parent " + std::to_string(p.parent) +
                " (parents must precede children)");
    }
    const auto read_nodes = [&](std::vector<planar::NodeId>& out,
                                const char* what) {
      const std::uint32_t count = r.u32();
      if (count > n) malformed(std::string("hierarchy ") + what + " too long");
      out.resize(count);
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::int32_t v = r.i32();
        if (v < 0 || static_cast<std::uint32_t>(v) >= n) {
          malformed(std::string("hierarchy ") + what + ": node " +
                    std::to_string(v) + " out of range");
        }
        out[k] = v;
      }
    };
    read_nodes(p.nodes, "piece nodes");
    read_nodes(p.separator, "separator");
  }
  h.hierarchy.cost = decode_cost(r);
  r.expect_exhausted("hierarchy section");
  h.hierarchy.rebuild_derived(h.num_nodes);
  return h;
}

namespace {

void encode_i32_array(ByteWriter& w, const std::vector<std::int32_t>& a) {
  w.u64(a.size());
  for (const std::int32_t v : a) w.i32(v);
}

void encode_i64_array(ByteWriter& w, const std::vector<std::int64_t>& a) {
  w.u64(a.size());
  for (const std::int64_t v : a) w.i64(v);
}

std::vector<std::int32_t> decode_i32_array(ByteReader& r, const char* what) {
  const std::uint64_t count = r.u64();
  if (count > (1ull << 31)) {
    malformed(std::string("implausible ") + what + " length");
  }
  std::vector<std::int32_t> a(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    a[static_cast<std::size_t>(i)] = r.i32();
  }
  return a;
}

std::vector<std::int64_t> decode_i64_array(ByteReader& r, const char* what) {
  const std::uint64_t count = r.u64();
  if (count > (1ull << 31)) {
    malformed(std::string("implausible ") + what + " length");
  }
  std::vector<std::int64_t> a(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    a[static_cast<std::size_t>(i)] = r.i64();
  }
  return a;
}

// Offsets arrays must start at 0 and be non-decreasing, ending at the
// length of the array they index.
void check_offsets(const std::vector<std::int64_t>& off, std::size_t total,
                   const char* what) {
  if (off.empty() || off.front() != 0 ||
      off.back() != static_cast<std::int64_t>(total)) {
    malformed(std::string("query index: ") + what + " offsets corrupt");
  }
  for (std::size_t i = 1; i < off.size(); ++i) {
    if (off[i] < off[i - 1]) {
      malformed(std::string("query index: ") + what +
                " offsets not monotone");
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_query_index(const query::QueryIndex& qi) {
  ByteWriter w;
  w.i32(qi.leaf_size);
  w.u32(static_cast<std::uint32_t>(qi.num_nodes));
  encode_i32_array(w, qi.piece_level);
  encode_i64_array(w, qi.sep_off);
  encode_i32_array(w, qi.sep_nodes);
  encode_i64_array(w, qi.path_off);
  encode_i32_array(w, qi.path_piece);
  encode_i64_array(w, qi.block_off);
  encode_i32_array(w, qi.dist);
  encode_i32_array(w, qi.leaf_pos);
  encode_i64_array(w, qi.leaf_tab_off);
  encode_i32_array(w, qi.leaf_tab);
  return w.take();
}

query::QueryIndex decode_query_index(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  query::QueryIndex qi;
  qi.leaf_size = r.i32();
  const std::uint32_t n = r.u32();
  if (n > (1u << 30)) malformed("implausible query index node count");
  qi.num_nodes = static_cast<planar::NodeId>(n);
  qi.piece_level = decode_i32_array(r, "piece_level");
  qi.sep_off = decode_i64_array(r, "sep_off");
  qi.sep_nodes = decode_i32_array(r, "sep_nodes");
  qi.path_off = decode_i64_array(r, "path_off");
  qi.path_piece = decode_i32_array(r, "path_piece");
  qi.block_off = decode_i64_array(r, "block_off");
  qi.dist = decode_i32_array(r, "dist");
  qi.leaf_pos = decode_i32_array(r, "leaf_pos");
  qi.leaf_tab_off = decode_i64_array(r, "leaf_tab_off");
  qi.leaf_tab = decode_i32_array(r, "leaf_tab");
  r.expect_exhausted("query index section");

  const std::size_t pieces = qi.piece_level.size();
  if (qi.sep_off.size() != pieces + 1 ||
      qi.leaf_tab_off.size() != pieces + 1) {
    malformed("query index: piece table sizes disagree");
  }
  if (qi.path_off.size() != static_cast<std::size_t>(n) + 1 ||
      qi.leaf_pos.size() != static_cast<std::size_t>(n)) {
    malformed("query index: node table sizes disagree");
  }
  check_offsets(qi.sep_off, qi.sep_nodes.size(), "sep");
  check_offsets(qi.path_off, qi.path_piece.size(), "path");
  check_offsets(qi.leaf_tab_off, qi.leaf_tab.size(), "leaf table");
  if (qi.block_off.size() != qi.path_piece.size()) {
    malformed("query index: block_off/path_piece sizes disagree");
  }
  // Ids and offsets the query walk dereferences unchecked: every distance
  // block inside `dist`, chain position l at level l, separator ids in
  // [0, n), and leaf positions inside their leaf's table.
  const auto dist_size = static_cast<std::int64_t>(qi.dist.size());
  for (std::size_t i = 0; i < qi.path_piece.size(); ++i) {
    const std::int32_t p = qi.path_piece[i];
    if (p < 0 || static_cast<std::size_t>(p) >= pieces) {
      malformed("query index: chain references unknown piece " +
                std::to_string(p));
    }
    if (qi.block_off[i] < 0 ||
        qi.block_off[i] > dist_size - qi.sep_count(p)) {
      malformed("query index: distance block " + std::to_string(i) +
                " outside the distance table");
    }
  }
  for (const planar::NodeId s : qi.sep_nodes) {
    if (s < 0 || s >= qi.num_nodes) {
      malformed("query index: separator node " + std::to_string(s) +
                " out of range");
    }
  }
  for (planar::NodeId v = 0; v < qi.num_nodes; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto at = static_cast<std::size_t>(qi.path_off[vi]);
    const std::int32_t len = qi.path_len(v);
    for (std::int32_t l = 0; l < len; ++l) {
      const auto p = static_cast<std::size_t>(qi.path_piece[at + l]);
      if (qi.piece_level[p] != l) {
        malformed("query index: chain of node " + std::to_string(v) +
                  " is out of level order");
      }
    }
    const std::int64_t pos = qi.leaf_pos[vi];
    if (pos == -1) continue;
    bool ok = pos >= 0 && len >= 1;
    if (ok) {
      const auto leaf = static_cast<std::size_t>(qi.path_piece[at + len - 1]);
      ok = (pos + 1) * (pos + 1) <=
           qi.leaf_tab_off[leaf + 1] - qi.leaf_tab_off[leaf];
    }
    if (!ok) {
      malformed("query index: leaf position of node " + std::to_string(v) +
                " outside its leaf table");
    }
  }
  return qi;
}

DfsArtifact dfs_artifact_from_tree(const dfs::PartialDfsTree& tree) {
  DfsArtifact d;
  d.root = tree.root();
  const planar::NodeId n = tree.graph().num_nodes();
  d.parent.resize(static_cast<std::size_t>(n));
  d.depth.resize(static_cast<std::size_t>(n));
  for (planar::NodeId v = 0; v < n; ++v) {
    d.parent[static_cast<std::size_t>(v)] = tree.parent(v);
    d.depth[static_cast<std::size_t>(v)] = tree.depth(v);
  }
  return d;
}

// ----------------------------------------------------------- file level --

std::vector<std::uint8_t> encode_graph_artifact(const planar::EmbeddedGraph& g,
                                                const ArtifactMeta* meta) {
  Artifact a;
  ArtifactMeta m = meta != nullptr ? *meta : ArtifactMeta{};
  m.fingerprint = core::topology_fingerprint(g);
  a.add(SectionId::kMeta, encode_meta(m));
  a.add(SectionId::kGraph, encode_graph(g));
  if (g.has_coordinates()) {
    a.add(SectionId::kCoords, encode_coords(g.coordinates()));
  }
  return assemble(a);
}

LoadedGraph decode_graph_artifact(const std::vector<std::uint8_t>& bytes) {
  const Artifact a = parse(bytes);
  LoadedGraph out{decode_graph(a.require(SectionId::kGraph)), {}};
  if (const Section* cs = a.find(SectionId::kCoords)) {
    std::vector<planar::Point> coords = decode_coords(cs->bytes);
    if (coords.size() != static_cast<std::size_t>(out.graph.num_nodes())) {
      malformed("coords section size does not match the graph");
    }
    out.graph.set_coordinates(std::move(coords));
  }
  if (const Section* ms = a.find(SectionId::kMeta)) {
    out.meta = decode_meta(ms->bytes);
    const std::uint64_t fp = core::topology_fingerprint(out.graph);
    if (out.meta.fingerprint != 0 && out.meta.fingerprint != fp) {
      throw FormatError("fingerprint mismatch: file says " +
                        core::fingerprint_hex(out.meta.fingerprint) +
                        ", decoded graph hashes to " +
                        core::fingerprint_hex(fp));
    }
  }
  return out;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  // Unique tmp suffix: concurrent writers of one content-addressed path
  // (e.g. two batch workers storing the same corpus instance) must not
  // interleave into a shared tmp file; last rename wins, same content.
  static std::atomic<unsigned> tmp_serial{0};
  const std::string tmp =
      path + ".tmp" + std::to_string(tmp_serial.fetch_add(1));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw FormatError("cannot open " + tmp + " for writing");
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) throw FormatError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw FormatError("cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  // Regular files only: a FIFO would block the open, and a directory
  // sizes as garbage.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw FormatError("cannot open " + path);
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) throw FormatError("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  f.seekg(0, std::ios::end);
  const std::streampos end = f.tellg();
  if (end < 0) throw FormatError("cannot size " + path);
  bytes.resize(static_cast<std::size_t>(end));
  f.seekg(0, std::ios::beg);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (!f) throw FormatError("short read from " + path);
  return bytes;
}

void save_graph(const std::string& path, const planar::EmbeddedGraph& g,
                const ArtifactMeta* meta) {
  write_file(path, encode_graph_artifact(g, meta));
}

LoadedGraph load_graph(const std::string& path) {
  try {
    return decode_graph_artifact(read_file(path));
  } catch (const FormatError& e) {
    throw FormatError(path + ": " + e.what());
  }
}

}  // namespace plansep::io
