#pragma once

// The three request streams the benchmark drives against plansepd.
//
// Every stream is a pure function of (workload, seed). It is cut into
// blocks of 20 with one fixed layout: which slot is cold, warm, a
// sibling, a load, a fault or a reject, and each slot's family, algorithm
// and base size, are the same in every block. The seed picks graph seeds,
// ±2% size jitter, query pairs, dead edges and id stretches. Two seeds
// therefore give different inputs with the same cost structure, and
// blocks cost alike, which is what keeps run-to-run spread small. The
// daemon only ever sees the generated job lines, query payloads and
// edge-list texts.
//
//   jobs_mixed    kSubmit job lines: 7 cold fresh specs, 7 exact warm
//                 repeats of the previous block's cold specs, 1 sibling
//                 (same instance, partner algorithm), 2 --graph= loads of
//                 prepared corpus files, 1 fault-injected job, 2
//                 malformed lines. The prime is one block's cold specs.
//   query_mixed   a prime block (the first request of each of the four
//                 instances, building its index), then kQueryReq batches
//                 of 2000 pairs: 15 read-only, 3 with 1-4 dead edges, 2
//                 malformed instance lines.
//   ingest_mixed  kIngestReq texts rendered like bench_ingest (sparse
//                 64-bit ids, comments, CRLF on half the lines): 7 fresh
//                 planar accepts (triangulate=1 on three), 5 exact
//                 repeats of earlier accepts, 5 non-planar (K5 or K3,3
//                 spliced in), 3 cheap rejects (duplicate edge,
//                 self-loop, overlong line; a tightened max_nodes
//                 replaces the self-loop on odd blocks). The prime is the
//                 five accepts block 0 repeats.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "planar/generators.hpp"

namespace perfbench {

enum class Kind { kJob, kQuery, kIngest };

/// Request classes; each latency class is summarized on its own.
enum class Klass {
  kCold,         ///< computed fresh: cold job spec, query prime, ingest accept
  kWarm,         ///< exact repeat (warm job, read-only query, repeat ingest)
  kSibling,      ///< same instance as an earlier job, partner algorithm
  kLoad,         ///< job on a prepared corpus file (--graph=)
  kFault,        ///< fault-injected job (monolithic recovery path)
  kWrite,        ///< query with dead edges (private engine)
  kReject,       ///< expected reject: malformed line, non-planar text
  kCheapReject,  ///< ingest budget/format reject before planarity
};

const char* klass_name(Klass k);

/// One planned request. Fields beyond the wire inputs are provenance the
/// correctness checks and the ledger's standalone pass need.
struct Request {
  std::uint64_t id = 0;  ///< wire correlation id (stream position)
  int block = 0;
  Klass klass = Klass::kCold;
  /// Job line (jobs) or instance line (queries); malformed when kReject.
  std::string line;
  // Instance provenance (jobs + queries): generated family/n/seed, or a
  // prepared corpus file.
  std::string family;
  int n = 0;
  std::uint64_t graph_seed = 0;
  std::string graph_path;
  std::string algo;  ///< serve::algo_name spelling (jobs)
  /// Stream index of the request this one repeats (warm/sibling), or -1.
  long long source = -1;
  // Queries. The pair batch is regenerated on demand (query_pairs), so a
  // long stream costs the client no memory.
  int instance = -1;
  int leaf_size = 0;
  int instance_nodes = 0;
  std::uint64_t pair_seed = 0;
  std::vector<std::pair<int, int>> dead_edges;
  // Ingest. The text is rendered on demand (ingest_text) from the source
  // graph (family, n, graph_seed), the id map and the edit.
  std::uint64_t text_seed = 0;
  /// Edit applied to the rendered text: 0 none, '5' K5 or '3' K3,3
  /// spliced in, 'd' duplicate edge, 's' self-loop, 'l' overlong line.
  char edit = 0;
  bool triangulate = false;
  std::int64_t max_nodes = 0;  ///< client-tightened cap; 0 = server default
  int expect_code = 0;         ///< ingest::IngestErrorCode; 0 = accept
};

/// The query batch of a query request (2000 pairs).
std::vector<std::pair<int, int>> query_pairs(const Request& r);

/// The edge-list text of an ingest request.
std::string ingest_text(const Request& r);

/// A pre-generated stream: the prime block (queries only) plus `blocks`
/// regular blocks, in send order.
struct Stream {
  Kind kind = Kind::kJob;
  int block_size = 20;
  std::vector<Request> prime;     ///< sent (and finished) before timing
  std::vector<Request> requests;  ///< the timed blocks, back to back
  /// query_mixed: the instances, for the bench-side BFS oracle.
  std::vector<plansep::planar::GeneratedGraph> instances;
  std::vector<std::string> corpus_files;  ///< jobs_mixed prepared inputs
};

/// Builds the workload's stream. Jobs store their prepared --graph=
/// inputs under `corpus_root` (the daemon's corpus root).
Stream make_stream(const std::string& workload, std::uint64_t seed,
                   int blocks, const std::string& corpus_root);

/// Whether a workload name is known.
bool known_workload(const std::string& workload);

}  // namespace perfbench
