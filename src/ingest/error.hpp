#pragma once

/// \file
/// Typed rejection taxonomy of the ingest front door: every way an
/// untrusted external graph can be refused, as a machine-readable code
/// plus a deterministic human-readable message.

// Ingest rejections are exceptions on purpose: the pipeline is a straight
// line (read → canonicalize → planarity → persist) and every stage can
// refuse, so a typed exception keeps the accept path free of error
// plumbing while the CLI / daemon catch one type at the boundary. The
// message format is part of the operator contract (docs/INGEST.md lists
// the exact strings); tooling should switch on code(), not parse text.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace plansep::ingest {

/// Why an input was rejected. Values are part of the wire protocol
/// (kIngestResp carries the code as one byte) — append, never renumber.
enum class IngestErrorCode : std::uint8_t {
  kParse = 1,          ///< malformed line / token / header
  kOverflow = 2,       ///< numeric token exceeds 2^63-1 or is negative
  kLineLimit = 3,      ///< a single line exceeds max_line_bytes
  kSelfLoop = 4,       ///< u == v under the reject policy
  kDuplicateEdge = 5,  ///< repeated {u,v} under the reject policy
  kNodeLimit = 6,      ///< distinct node count exceeds max_nodes
  kEdgeLimit = 7,      ///< edge count exceeds max_edges
  kEmpty = 8,          ///< no edges survive parsing
  kNonPlanar = 9,      ///< DMP rejection; witness() has the subgraph
  kNotBiconnected = 10,  ///< --triangulate on a graph that is not 2-connected
};

/// Stable lower-case name of a code ("parse", "overflow", ...). The
/// spelling used in error messages, CLI output and docs/INGEST.md.
const char* ingest_error_code_name(IngestErrorCode code);

/// An ingest rejection: code + 1-based input line (0 when the rejection
/// is not tied to one line) + detail, and for kNonPlanar the offending
/// subgraph's edge list in the *original* (external) node ids.
class IngestError : public std::runtime_error {
 public:
  /// A witness edge in original (external) node ids.
  using Edge = std::pair<long long, long long>;

  /// Builds the rejection; the what() string is format_message(...).
  IngestError(IngestErrorCode code, std::size_t line, const std::string& detail,
              std::vector<Edge> witness = {})
      : std::runtime_error(format_message(code, line, detail)),
        code_(code),
        line_(line),
        detail_(detail),
        witness_(std::move(witness)) {}

  /// The machine-readable rejection class; switch on this, not what().
  IngestErrorCode code() const { return code_; }
  /// 1-based line number of the offending input line; 0 if whole-input.
  std::size_t line() const { return line_; }
  /// The detail clause of the message, without the code/line prefix.
  const std::string& detail() const { return detail_; }
  /// Non-planarity witness (original ids); empty for every other code.
  const std::vector<Edge>& witness() const { return witness_; }

  /// The exact message grammar: "ingest rejected [<code>]: <detail>" or,
  /// when line > 0, "ingest rejected [<code>] line <line>: <detail>".
  static std::string format_message(IngestErrorCode code, std::size_t line,
                                    const std::string& detail);

 private:
  IngestErrorCode code_;
  std::size_t line_;
  std::string detail_;
  std::vector<Edge> witness_;
};

}  // namespace plansep::ingest
