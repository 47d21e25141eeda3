#include "ingest/error.hpp"

namespace plansep::ingest {

const char* ingest_error_code_name(IngestErrorCode code) {
  switch (code) {
    case IngestErrorCode::kParse: return "parse";
    case IngestErrorCode::kOverflow: return "overflow";
    case IngestErrorCode::kLineLimit: return "line-limit";
    case IngestErrorCode::kSelfLoop: return "self-loop";
    case IngestErrorCode::kDuplicateEdge: return "duplicate-edge";
    case IngestErrorCode::kNodeLimit: return "node-limit";
    case IngestErrorCode::kEdgeLimit: return "edge-limit";
    case IngestErrorCode::kEmpty: return "empty";
    case IngestErrorCode::kNonPlanar: return "non-planar";
    case IngestErrorCode::kNotBiconnected: return "not-biconnected";
  }
  return "unknown";
}

std::string IngestError::format_message(IngestErrorCode code,
                                        std::size_t line,
                                        const std::string& detail) {
  std::string msg = "ingest rejected [";
  msg += ingest_error_code_name(code);
  msg += "]";
  if (line > 0) {
    msg += " line ";
    msg += std::to_string(line);
  }
  msg += ": ";
  msg += detail;
  return msg;
}

}  // namespace plansep::ingest
