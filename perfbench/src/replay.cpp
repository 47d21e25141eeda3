// The traced replay (--trace 1): per-layer costs from outside the
// program. See ledger.hpp for the span model and README.md for which
// end-to-end metric each per-layer metric should move.
//
// For each workload the replayed prefix is the prime block (queries) plus
// the first regular block. It runs twice through the dispatcher's entry
// points on a fresh cache — untraced, then traced — and the outputs of
// the two passes (job rows, answers, verdicts) must match exactly. A
// standalone pass then times the stages the entry points hide and hangs
// them under each request's root span. For the named workload the prefix
// is also served by a daemon first; its latencies give the queue wait,
// and its outputs must match the replay's.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "congest/network.hpp"
#include "core/fingerprint.hpp"
#include "daemon/protocol.hpp"
#include "ingest/error.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/reader.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "io/frame.hpp"
#include "obs/metrics.hpp"
#include "ledger.hpp"
#include "planar/dmp_embedder.hpp"
#include "planar/generators.hpp"
#include "planar/triangulate.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/verify.hpp"
#include "stats.hpp"
#include "subroutines/components.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace plansep;

constexpr double kUnattributedBound = 0.25;
// Per request: the standalone stages may overshoot the entry point's own
// time by timing noise (up to about 0.3 of a request on a 4-vCPU VM),
// not by more. A stage the entry point stopped running that was worth
// half the request or more trips it; dropping warm regeneration would
// leave warm random_planar requests near -10.
constexpr double kRequestResidualBound = 0.5;
constexpr int kStageReps = 3;  // standalone calls per stage; the fastest counts
constexpr int kPings = 200;
constexpr int kCodecReps = 20;
const char* const kWorkloads[] = {"jobs_mixed", "query_mixed", "ingest_mixed"};

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Prime block plus the first regular block, in send order.
std::vector<const Request*> prefix_of(const Stream& s) {
  std::vector<const Request*> out;
  for (const Request& r : s.prime) out.push_back(&r);
  for (const Request& r : s.requests) {
    if (r.block == 0) out.push_back(&r);
  }
  return out;
}

// ------------------------------------------------------------- replay --

// A request's materialized inputs, built before any timing starts.
struct Inputs {
  std::vector<std::pair<planar::NodeId, planar::NodeId>> pairs;
  std::string text;
};

Inputs inputs_of(Kind kind, const Request& r) {
  Inputs in;
  if (kind == Kind::kQuery && r.klass != Klass::kReject) {
    const auto pairs = query_pairs(r);
    in.pairs.assign(pairs.begin(), pairs.end());
  }
  if (kind == Kind::kIngest) in.text = ingest_text(r);
  return in;
}

struct Pass {
  std::vector<double> service_ms;
  std::vector<std::string> output;
  std::vector<int> root;  ///< traced pass: root span of each request
  std::vector<std::map<std::string, serve::ArtifactCache::Value>> returned;
  std::vector<char> engine_hit;
  long long tasks_run = 0;
  long long cache_served = 0;
  long long lookups = 0;
  long long computes = 0;
  long long rounds = 0;
  long long messages = 0;
};

const char* root_name(Kind kind, const Request& r) {
  if (r.klass == Klass::kReject && kind != Kind::kIngest) {
    return "daemon.parse_reject";
  }
  switch (kind) {
    case Kind::kJob:
      return "serve.job";
    case Kind::kQuery:
      return "query.job";
    case Kind::kIngest:
      return "ingest.job";
  }
  return "?";
}

// Executes one request the way a dispatcher worker (or, for malformed
// lines, the session) does; returns its comparable output.
std::string execute(Kind kind, const Request& r, const Inputs& in,
                    const serve::BatchOptions& bo, serve::ArtifactCache& cache,
                    query::EngineCache& engines, Pass& pass) {
  if (r.klass == Klass::kReject && kind != Kind::kIngest) {
    try {
      serve::parse_job_line(r.line, 0);
    } catch (const std::exception&) {
      return "bad_spec";
    }
    return "<parsed>";
  }
  switch (kind) {
    case Kind::kJob: {
      const serve::JobSpec spec = *serve::parse_job_line(r.line, 0);
      const serve::JobResult res = serve::run_single_job(spec, r.id, bo, cache);
      pass.tasks_run += res.taskgraph.tasks_run;
      pass.cache_served += res.taskgraph.cache_served;
      return res.row;
    }
    case Kind::kQuery: {
      query::QueryJob job;
      job.instance = *serve::parse_job_line(r.line, 0);
      job.leaf_size = r.leaf_size;
      job.pairs = in.pairs;
      job.dead_edges.assign(r.dead_edges.begin(), r.dead_edges.end());
      const query::QueryOutcome o =
          query::run_query_job(job, bo, cache, &engines);
      pass.engine_hit.back() = o.engine_cache_hit ? 1 : 0;
      return answers_digest(o.status, o.distances);
    }
    case Kind::kIngest: {
      ingest::IngestOptions io;
      io.triangulate = r.triangulate;
      io.corpus_root = bo.corpus_dir;
      if (r.max_nodes > 0) io.max_nodes = std::min(io.max_nodes, r.max_nodes);
      try {
        const ingest::IngestResult res = ingest::ingest_string(in.text, io);
        return ingest_verdict("ok", 0, res.meta.fingerprint, res.graph.num_nodes(),
                       res.graph.num_edges());
      } catch (const ingest::IngestError& e) {
        return ingest_verdict("rejected", static_cast<int>(e.code()), 0, 0, 0);
      }
    }
  }
  return "?";
}

// One replay pass: a fresh cache (decorated when traced), an engine
// cache and a corpus root of its own, fed one request at a time.
class Replayer {
 public:
  Replayer(Kind kind, const std::string& corpus, Ledger* ledger)
      : kind_(kind),
        ledger_(ledger),
        inner_({kConfig.cache_bytes, kConfig.cache_shards, ""}),
        engines_(kConfig.engine_capacity) {
    if (ledger_ != nullptr) tracing_.emplace(inner_, *ledger_);
    bo_.corpus_dir = corpus;  // threads = 1, like the dispatcher's
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void run(const Request& r, const Inputs& in) {
    if (ledger_ != nullptr) ledger_->set_request(r.id);
    serve::ArtifactCache& cache =
        tracing_ ? static_cast<serve::ArtifactCache&>(*tracing_) : inner_;
    pass.engine_hit.push_back(0);
    const std::int64_t t0 = now_ns();
    int root = -1;
    std::string out;
    {
      Scope span(ledger_, root_name(kind_, r));
      root = span.index();
      out = execute(kind_, r, in, bo_, cache, engines_, pass);
    }
    pass.service_ms.push_back(ns_to_ms(now_ns() - t0));
    pass.output.push_back(std::move(out));
    pass.root.push_back(root);
    pass.returned.push_back(
        tracing_ ? tracing_->take_returned()
                 : std::map<std::string, serve::ArtifactCache::Value>{});
    if (tracing_) {
      pass.lookups = tracing_->lookups();
      pass.computes = tracing_->computes();
    }
  }

  Pass pass;

 private:
  Kind kind_;
  Ledger* ledger_;
  serve::ShardedResultCache inner_;
  std::optional<TracingCache> tracing_;
  query::EngineCache engines_;
  serve::BatchOptions bo_;
};

// ---------------------------------------------------- standalone pass --

struct StandaloneTotals {
  std::int64_t walk_ns = 0;
  long long walked = 0;  ///< distances answered in timed walks
  long long pieces_rebuilt = 0;
  long long index_bytes = 0;
};

// The fastest of kStageReps calls of fn, as {start, duration} in ns. The
// fastest call is the stage's own cost; a single call would also carry
// whatever the host did meanwhile, and charge it to the stage.
template <typename Fn>
std::pair<std::int64_t, std::int64_t> fastest(Fn&& fn, int reps = kStageReps) {
  std::int64_t start = 0;
  std::int64_t best = -1;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t dt = now_ns() - t0;
    if (best < 0 || dt < best) {
      start = t0;
      best = dt;
    }
  }
  return {start, best};
}

// Times fn (the fastest of `reps` calls; fn must be repeatable) and hangs
// the interval under `parent` as `name`.
template <typename Fn>
void timed(Ledger& L, int parent, const char* name, Fn&& fn,
           int reps = kStageReps) {
  const auto [start, dt] = fastest(fn, reps);
  L.add_standalone(parent, name, start, start + dt);
}

planar::GeneratedGraph generate(const Request& r) {
  return planar::make_instance(*planar::family_from_name(r.family), r.n,
                               r.graph_seed);
}

void decode_verify(const std::string& algorithm, const planar::EmbeddedGraph& g,
                   const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  if (algorithm == "separator@v1") {
    const auto sa = io::decode_separator(a.find(io::SectionId::kSeparator)->bytes);
    (void)serve::verify_separator_artifact(g, sa);
  } else if (algorithm == "dfs@v1") {
    const auto da = io::decode_dfs(a.find(io::SectionId::kDfsTree)->bytes);
    (void)serve::verify_dfs_artifact(g, da);
  } else {
    const auto la =
        io::decode_level_separator(a.find(io::SectionId::kLevelSeparator)->bytes);
    std::vector<char> in_sep(static_cast<std::size_t>(g.num_nodes()), 0);
    for (const planar::NodeId v : la.result.separator) {
      in_sep[static_cast<std::size_t>(v)] = 1;
    }
    (void)sub::connected_components(
        g, [&](planar::NodeId v) { return !in_sep[static_cast<std::size_t>(v)]; });
  }
}

// Which returned artifacts a job of this algo decodes into its row.
std::vector<std::string> row_artifacts(const std::string& algo) {
  if (algo == "separator") return {"separator@v1"};
  if (algo == "dfs") return {"dfs@v1"};
  if (algo == "pipeline") return {"separator@v1", "dfs@v1"};
  return {"lt-level@v1"};
}

void standalone_job(Ledger& L, int root, const Request& r,
                    const std::map<std::string, serve::ArtifactCache::Value>& returned) {
  planar::EmbeddedGraph g;
  if (!r.graph_path.empty()) {
    timed(L, root, "io.corpus_load", [&] { g = io::load_graph(r.graph_path).graph; });
  } else {
    timed(L, root, "planar.generate", [&] { g = generate(r).graph; });
  }
  timed(L, root, "core.fingerprint", [&] { (void)core::topology_fingerprint(g); });
  for (const std::string& id : row_artifacts(r.algo)) {
    const auto it = returned.find(id);
    if (it == returned.end() || !it->second) continue;  // fault path: uncached
    timed(L, root, "serve.decode_verify", [&] { decode_verify(id, g, *it->second); });
  }
}

void standalone_query(Ledger& L, int root, const Request& r, const Inputs& in,
                      bool engine_hit,
                      const std::map<std::string, serve::ArtifactCache::Value>& returned,
                      const std::string& store_root,
                      std::map<int, std::shared_ptr<query::QueryEngine>>& clean,
                      StandaloneTotals& tot) {
  planar::EmbeddedGraph g;
  timed(L, root, "planar.generate", [&] { g = generate(r).graph; });
  // A store is content-addressed: only the first call writes.
  timed(L, root, "io.corpus_store",
        [&] { io::store_in_corpus(store_root, r.family, g, r.graph_seed); }, 1);
  timed(L, root, "core.fingerprint", [&] { (void)core::topology_fingerprint(g); });
  const auto it = returned.find(query::kIndexAlgorithmId);
  if (it == returned.end() || !it->second) return;
  const std::vector<std::uint8_t>& bytes = *it->second;

  std::shared_ptr<query::QueryEngine> decoded;
  if (!engine_hit) {
    timed(L, root, "io.index_decode",
          [&] { decoded = query::engine_from_artifact_bytes(g, bytes); });
  }
  if (!clean.count(r.instance)) {
    const io::Artifact a = io::parse(bytes);
    tot.index_bytes += static_cast<long long>(
        a.find(io::SectionId::kQueryIndex)->bytes.size());
    clean[r.instance] = r.dead_edges.empty() && decoded
                            ? decoded
                            : query::engine_from_artifact_bytes(g, bytes);
  }
  const auto& pairs = in.pairs;
  const auto [w0, walk] = fastest([&] { (void)clean[r.instance]->distances(pairs); });
  tot.walk_ns += walk;
  tot.walked += static_cast<long long>(pairs.size());
  L.add_standalone(root, "query.walk", w0, w0 + walk);
  if (!r.dead_edges.empty() && decoded) {
    // The write's extra cost: kills plus the lazily rebuilding batch,
    // minus the same batch on a clean engine.
    const std::int64_t k0 = now_ns();
    for (const auto& [a, b] : r.dead_edges) decoded->kill_edge(a, b);
    (void)decoded->distances(pairs);
    const std::int64_t kill = std::max<std::int64_t>(0, now_ns() - k0 - walk);
    L.add_standalone(root, "query.kill", k0, k0 + kill);
    tot.pieces_rebuilt += decoded->counters().pieces_rebuilt;
  }
}

// The canonical (rank-renumbered, sorted) edge list ingest builds before
// planarity; only called on texts without self-loops or duplicates.
std::pair<planar::NodeId, std::vector<std::pair<planar::NodeId, planar::NodeId>>>
canonical(const ingest::RawEdgeList& raw) {
  std::vector<long long> ids;
  for (const auto& [u, v] : raw.edges) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto rank = [&](long long x) {
    return static_cast<planar::NodeId>(
        std::lower_bound(ids.begin(), ids.end(), x) - ids.begin());
  };
  std::vector<std::pair<planar::NodeId, planar::NodeId>> edges;
  for (const auto& [u, v] : raw.edges) {
    edges.emplace_back(std::min(rank(u), rank(v)), std::max(rank(u), rank(v)));
  }
  std::sort(edges.begin(), edges.end());
  return {static_cast<planar::NodeId>(ids.size()), std::move(edges)};
}

void standalone_ingest(Ledger& L, int root, const Request& r, const Inputs& in,
                       const std::string& store_root) {
  ingest::RawEdgeList raw;
  timed(L, root, "ingest.read", [&] {
    std::istringstream text(in.text);
    try {
      raw = ingest::read_untrusted_edge_list(text, ingest::TextFormat::kAuto,
                                             ingest::ReaderLimits{});
    } catch (const ingest::IngestError&) {
    }
  });
  if (r.expect_code != 0 && r.expect_code != 9) return;  // rejected earlier
  const auto [n, edges] = canonical(raw);
  planar::PlanarityResult check;
  timed(L, root, "planar.planarity",
        [&] { check = planar::planar_embedding_with_witness(n, edges); });
  if (!check.planar()) return;
  planar::EmbeddedGraph g = std::move(*check.embedding);
  if (r.triangulate) {
    planar::EmbeddedGraph tri;
    timed(L, root, "planar.triangulate",
          [&] { tri = planar::triangulate_with_apexes(g).graph; });
    g = std::move(tri);
  }
  timed(L, root, "core.fingerprint", [&] { (void)core::topology_fingerprint(g); });
  timed(L, root, "io.corpus_store",
        [&] { io::store_in_corpus(store_root, "ingest", g); }, 1);
}

// -------------------------------------------------------- layer tables --

struct LayerAgg {
  long long calls = 0;
  std::int64_t self_ns = 0;
};
using Table = std::map<std::string, LayerAgg>;

// Self time per layer over the spans of the requests `keep` selects. A
// root span's self time is the request's unattributed time.
Table aggregate(const Ledger& L, const std::vector<std::int64_t>& self,
                const std::function<bool(std::uint64_t)>& keep) {
  Table t;
  for (std::size_t i = 0; i < L.spans().size(); ++i) {
    const SpanRec& s = L.spans()[i];
    if (!keep(s.request)) continue;
    const std::string name =
        s.parent < 0 ? "unattributed (" + s.name + " self)" : s.name;
    LayerAgg& a = t[name];
    ++a.calls;
    a.self_ns += self[i];
  }
  return t;
}

void print_table(const char* title, const Table& t) {
  std::int64_t total = 0;
  for (const auto& [name, a] : t) total += a.self_ns;
  std::vector<std::pair<std::string, LayerAgg>> rows(t.begin(), t.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.self_ns > y.second.self_ns;
  });
  std::printf("\n-- %s: self time by layer (total %.3f ms)\n", title,
              ns_to_ms(total));
  std::printf("  %-40s %7s %12s %12s %7s\n", "layer", "calls", "self ms",
              "mean ms", "share");
  for (const auto& [name, a] : rows) {
    std::printf("  %-40s %7lld %12.3f %12.4f %6.1f%%\n", name.c_str(), a.calls,
                ns_to_ms(a.self_ns),
                a.calls > 0 ? ns_to_ms(a.self_ns) / static_cast<double>(a.calls) : 0.0,
                total > 0 ? 100.0 * static_cast<double>(a.self_ns) /
                                static_cast<double>(total)
                          : 0.0);
  }
}

double self_ms(const Table& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : ns_to_ms(it->second.self_ns);
}

double mean_us(const Table& t, const std::string& name) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.calls == 0) return 0.0;
  return static_cast<double>(it->second.self_ns) / 1e3 /
         static_cast<double>(it->second.calls);
}

// ------------------------------------------------------ daemon prefix --

struct DaemonSide {
  std::vector<double> latency_ms;  ///< prefix order
  std::vector<std::string> output;
  double ping_rtt_us = 0;
  double frame_codec_us = 0;
  double queue_depth = 0;
};

double histogram_mean(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"count\":";
  const auto p = json.find(key);
  if (p == std::string::npos) return 0;
  const double count = std::strtod(json.c_str() + p + key.size(), nullptr);
  const auto q = json.find("\"sum\":", p);
  if (q == std::string::npos || count <= 0) return 0;
  return std::strtod(json.c_str() + q + 6, nullptr) / count;
}

// Encodes every request payload of the prefix and every outcome payload
// the daemon sent into wire frames and decodes them back; mean µs per
// frame. Inputs are materialized before the clock starts.
double frame_codec_us(const Stream& s, const std::vector<const Request*>& reqs,
                      const std::vector<Outcome>& outs) {
  using daemon::FrameType;
  std::vector<daemon::SubmitPayload> submits;
  std::vector<daemon::QueryRequestPayload> queries;
  std::vector<daemon::IngestRequestPayload> ingests;
  for (const Request* r : reqs) {
    if (s.kind == Kind::kJob) {
      submits.push_back({daemon::Priority::kNormal, r->line});
    } else if (s.kind == Kind::kQuery) {
      daemon::QueryRequestPayload q;
      q.spec_line = r->line;
      q.leaf_size = r->leaf_size;
      if (r->klass != Klass::kReject) q.pairs = query_pairs(*r);
      q.dead_edges = r->dead_edges;
      queries.push_back(std::move(q));
    } else {
      daemon::IngestRequestPayload p;
      p.triangulate = r->triangulate ? 1 : 0;
      p.max_nodes = r->max_nodes;
      p.text = ingest_text(*r);
      ingests.push_back(std::move(p));
    }
  }
  const auto round_trip = [](FrameType type, std::vector<std::uint8_t> payload) {
    const std::vector<std::uint8_t> wire =
        daemon::make_frame(type, 7, std::move(payload));
    io::FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    return dec.next()->payload;
  };
  std::size_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int rep = 0; rep < kCodecReps; ++rep) {
    for (const auto& p : submits) {
      sink += daemon::decode_submit(
                  round_trip(FrameType::kSubmit, daemon::encode_submit(p)))
                  .spec_line.size();
    }
    for (const auto& q : queries) {
      sink += daemon::decode_query_request(
                  round_trip(FrameType::kQueryReq, daemon::encode_query_request(q)))
                  .pairs.size();
    }
    for (const auto& p : ingests) {
      sink += daemon::decode_ingest_request(
                  round_trip(FrameType::kIngestReq, daemon::encode_ingest_request(p)))
                  .text.size();
    }
    for (const Outcome& o : outs) {
      if (!o.done) continue;
      const auto type = static_cast<FrameType>(o.type);
      const std::vector<std::uint8_t> back = round_trip(type, o.payload);
      switch (type) {
        case FrameType::kResponse:
          sink += daemon::encode_response(daemon::decode_response(back)).size();
          break;
        case FrameType::kQueryResp:
          sink += daemon::encode_query_response(daemon::decode_query_response(back))
                      .size();
          break;
        case FrameType::kIngestResp:
          sink += daemon::encode_ingest_response(daemon::decode_ingest_response(back))
                      .size();
          break;
        default:
          sink += daemon::encode_status(daemon::decode_status(back)).size();
          break;
      }
    }
  }
  const std::int64_t dt = now_ns() - t0;
  const std::size_t frames =
      submits.size() + queries.size() + ingests.size() +
      static_cast<std::size_t>(std::count_if(
          outs.begin(), outs.end(), [](const Outcome& o) { return o.done; }));
  if (sink == 0 || frames == 0) return 0;
  return static_cast<double>(dt) / 1e3 /
         static_cast<double>(frames * kCodecReps);
}

DaemonSide serve_prefix(const Stream& s, const std::vector<const Request*>& reqs,
                        const std::string& dir) {
  DaemonSide d;
  Live live;
  (void)setup_daemon(dir, dir + "/corpus", live, 1);
  std::vector<Request> prime(s.prime.begin(), s.prime.end());
  std::vector<Request> block;
  for (const Request& r : s.requests) {
    if (r.block == 0) block.push_back(r);
  }
  std::vector<Outcome> outs;
  if (!prime.empty()) {
    // The same windows as the end-to-end run (main.cpp).
    LoopResult p =
        closed_loop(live.client, s.kind, prime,
                    s.kind == Kind::kQuery ? 1 : kConfig.window, s.block_size, -1);
    outs.insert(outs.end(), p.out.begin(), p.out.end());
  }
  LoopResult b =
      closed_loop(live.client, s.kind, block, kConfig.window, s.block_size, -1);
  outs.insert(outs.end(), b.out.begin(), b.out.end());
  for (const Outcome& o : outs) {
    d.latency_ms.push_back(o.latency_ms);
    d.output.push_back(output_of_frame(s.kind, o));
  }
  std::vector<double> rtt;
  for (int i = 0; i < kPings; ++i) {
    const auto t0 = Clock::now();
    if (live.client.ping(2000000 + static_cast<std::uint64_t>(i), 10000)) {
      rtt.push_back(ms_since(t0) * 1000.0);
    }
  }
  d.ping_rtt_us = quantile(rtt, 0.5);
  if (const auto m = live.client.metrics(3000000, 10000)) {
    d.queue_depth = histogram_mean(*m, "daemon/queue_depth");
  }
  live.stop();
  d.frame_codec_us = frame_codec_us(s, reqs, outs);
  return d;
}

// ------------------------------------------------------------ per run --

struct WorkloadLedger {
  Table table;
  Pass traced;
  Pass untraced;
  StandaloneTotals tot;
  double unattributed_share = 0;
  double min_residual = 0;  ///< lowest per-request unattributed share
  std::uint64_t min_residual_request = 0;
  long long overcharged = 0;  ///< requests below -kRequestResidualBound
  double overhead_share = 0;
  std::optional<DaemonSide> daemon;
  double queue_wait_ms = 0;
  long long requests = 0;
  long long mismatches = 0;
  long long compared = 0;
  Table warm_rp;  ///< warm random_planar requests only
  std::uint32_t output_crc = 0;
};

WorkloadLedger trace_workload(const std::string& workload, std::uint64_t seed,
                              bool with_daemon, const std::string& run_dir,
                              std::ofstream& spans_out) {
  WorkloadLedger w;
  const std::string dir = run_dir + "/" + workload;
  std::filesystem::create_directories(dir);
  const Stream s = make_stream(workload, seed, 1, dir + "/corpus");
  const std::vector<const Request*> reqs = prefix_of(s);
  w.requests = static_cast<long long>(reqs.size());

  if (with_daemon) w.daemon = serve_prefix(s, reqs, dir);

  // The untraced and traced passes run interleaved, request by request,
  // alternating which goes first, so drift in machine speed hits both
  // alike; the standalone stages of a request are timed right after its
  // traced run. The environment is the dispatcher's: serial round engine,
  // no metrics registry, and a trace sink only while the traced pass runs.
  Ledger L;
  Replayer untraced(s.kind, dir + "/replay-untraced", nullptr);
  Replayer traced(s.kind, dir + "/replay-traced", &L);
  TimingSink sink(L);
  std::map<int, std::shared_ptr<query::QueryEngine>> clean;
  {
    congest::ScopedThreadConfig serial(congest::ThreadConfig{});
    obs::MetricsRegistry* const saved_reg = obs::set_global_registry(nullptr);
    congest::TraceSink* const saved_sink = congest::set_global_trace_sink(nullptr);
    const auto run_traced_one = [&](const Request& r, const Inputs& in) {
      congest::set_global_trace_sink(&sink);
      traced.run(r, in);
      congest::set_global_trace_sink(nullptr);
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = *reqs[i];
      const Inputs in = inputs_of(s.kind, r);
      if (i % 2 == 0) {
        untraced.run(r, in);
        run_traced_one(r, in);
      } else {
        run_traced_one(r, in);
        untraced.run(r, in);
      }
      const int root = traced.pass.root[i];
      if (r.klass == Klass::kReject && s.kind != Kind::kIngest) continue;
      switch (s.kind) {
        case Kind::kJob:
          if (r.klass != Klass::kFault) {
            standalone_job(L, root, r, traced.pass.returned[i]);
          }
          break;
        case Kind::kQuery:
          standalone_query(L, root, r, in, traced.pass.engine_hit[i] != 0,
                           traced.pass.returned[i], dir + "/standalone", clean,
                           w.tot);
          break;
        case Kind::kIngest:
          standalone_ingest(L, root, r, in, dir + "/standalone");
          break;
      }
    }
    congest::set_global_trace_sink(saved_sink);
    obs::set_global_registry(saved_reg);
  }
  traced.pass.rounds = sink.rounds();
  traced.pass.messages = sink.messages();
  w.traced = std::move(traced.pass);
  w.untraced = std::move(untraced.pass);

  if (L.foreign() > 0) {
    std::printf("note: %lld spans from foreign threads dropped\n", L.foreign());
  }
  const std::vector<std::int64_t> self = L.self_times();
  w.table = aggregate(L, self, [](std::uint64_t) { return true; });
  std::map<std::uint64_t, const Request*> by_id;
  for (const Request* r : reqs) by_id[r->id] = r;
  w.warm_rp = aggregate(L, self, [&](std::uint64_t id) {
    const Request* r = by_id.at(id);
    return r->klass == Klass::kWarm && r->family == "random_planar";
  });

  // Ledger coverage and tracing overhead. A request whose residual is
  // clearly negative had a standalone stage charged that its entry point
  // no longer runs (or runs far faster): the ledger no longer describes it.
  std::int64_t service = 0;
  std::int64_t unattributed = 0;
  for (std::size_t i = 0; i < L.spans().size(); ++i) {
    const SpanRec& root = L.spans()[i];
    if (root.parent >= 0) continue;
    const std::int64_t duration = root.end - root.start;
    service += duration;
    unattributed += self[i];
    const double residual =
        duration > 0 ? static_cast<double>(self[i]) / static_cast<double>(duration)
                     : 0.0;
    if (residual < w.min_residual) {
      w.min_residual = residual;
      w.min_residual_request = root.request;
    }
    if (residual < -kRequestResidualBound) ++w.overcharged;
  }
  w.unattributed_share =
      service > 0 ? static_cast<double>(unattributed) / static_cast<double>(service)
                  : 0.0;
  double traced_ms = 0;
  double untraced_ms = 0;
  for (const double x : w.traced.service_ms) traced_ms += x;
  for (const double x : w.untraced.service_ms) untraced_ms += x;
  w.overhead_share = untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0;

  // Outputs: traced ≡ untraced, and ≡ daemon when it ran.
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ids.push_back(reqs[i]->id);
    ++w.compared;
    if (w.traced.output[i] != w.untraced.output[i]) ++w.mismatches;
    if (w.daemon) {
      ++w.compared;
      if (w.daemon->output[i] != w.traced.output[i]) {
        ++w.mismatches;
        std::printf("MISMATCH %s request %llu: daemon '%s' vs replay '%s'\n",
                    workload.c_str(), static_cast<unsigned long long>(reqs[i]->id),
                    w.daemon->output[i].substr(0, 120).c_str(),
                    w.traced.output[i].substr(0, 120).c_str());
      }
    }
  }
  w.output_crc = output_crc(ids, w.traced.output);
  if (w.daemon) {
    std::vector<double> wait;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      wait.push_back(w.daemon->latency_ms[i] - w.untraced.service_ms[i]);
    }
    w.queue_wait_ms = quantile(wait, 0.5);
  }
  L.write_jsonl(spans_out, workload);
  return w;
}

}  // namespace

int run_traced(const Args& a) {
  const std::string run_dir = ".bench_run/trace-" + a.workload + "-s" +
                              std::to_string(a.seed) + "-p" +
                              std::to_string(getpid());
  ScratchDir scratch(run_dir);
  std::filesystem::create_directories(".bench_run/spans");
  const std::string spans_path = ".bench_run/spans/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".jsonl";
  std::ofstream spans_out(spans_path);

  std::map<std::string, WorkloadLedger> led;
  for (const char* wl : kWorkloads) {
    led.emplace(wl, trace_workload(wl, a.seed, a.workload == wl, run_dir, spans_out));
  }
  const WorkloadLedger& J = led.at("jobs_mixed");
  const WorkloadLedger& Q = led.at("query_mixed");
  const WorkloadLedger& I = led.at("ingest_mixed");
  const WorkloadLedger& W = led.at(a.workload);

  std::printf("plansepd traced replay: workload=%s seed=%llu (prefix: prime + block 0 "
              "of every workload; daemon side: %s)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.workload.c_str());
  std::vector<std::string> failures;
  long long attempted = 0;
  for (const char* wl : kWorkloads) {
    const WorkloadLedger& w = led.at(wl);
    attempted += w.requests;
    print_table(wl, w.table);
    std::printf("  requests=%lld  unattributed share=%.4f (bound %.2f)  "
                "tracing overhead=%.4f\n",
                w.requests, w.unattributed_share, kUnattributedBound,
                w.overhead_share);
    std::printf("  lowest request residual=%.4f (request %llu; bound -%.2f), "
                "%lld requests past it\n",
                w.min_residual, static_cast<unsigned long long>(w.min_residual_request),
                kRequestResidualBound, w.overcharged);
    if (std::abs(w.unattributed_share) > kUnattributedBound) {
      failures.push_back(std::string(wl) + ": unattributed share past the bound");
    }
    if (w.overcharged > 0) {
      failures.push_back(std::string(wl) + ": " + std::to_string(w.overcharged) +
                         " requests charged for stages they did not run");
    }
    if (w.mismatches > 0 || w.compared == 0) {
      failures.push_back(std::string(wl) + ": " + std::to_string(w.mismatches) +
                         " of " + std::to_string(w.compared) +
                         " output comparisons differ");
    }
  }

  // Warm random_planar requests: instance acquisition must dominate.
  Table warm_rp = J.warm_rp;
  for (const auto& [name, agg] : Q.warm_rp) {
    warm_rp[name].calls += agg.calls;
    warm_rp[name].self_ns += agg.self_ns;
  }
  print_table("warm random_planar requests (jobs + queries)", warm_rp);
  std::string top;
  std::int64_t top_ns = -1;
  for (const auto& [name, agg] : warm_rp) {
    if (agg.self_ns > top_ns) {
      top = name;
      top_ns = agg.self_ns;
    }
  }
  if (top != "planar.generate") {
    failures.push_back("warm random_planar: largest self time is '" + top +
                       "', not planar.generate");
  }
  if (J.traced.tasks_run != J.untraced.tasks_run ||
      J.traced.cache_served != J.untraced.cache_served) {
    failures.push_back("task-graph counters differ between traced and untraced passes");
  }

  Counters det;
  det.emplace_back("congest.rounds(jobs)", J.traced.rounds);
  det.emplace_back("congest.messages(jobs)", J.traced.messages);
  det.emplace_back("taskgraph.tasks_run(jobs)", J.traced.tasks_run);
  det.emplace_back("taskgraph.cache_served(jobs)", J.traced.cache_served);
  det.emplace_back("query.index_bytes", Q.tot.index_bytes);
  det.emplace_back("query.pieces_rebuilt", Q.tot.pieces_rebuilt);
  det.emplace_back("jobs_mixed.output_crc(prefix)", J.output_crc);
  det.emplace_back("query_mixed.output_crc(prefix)", Q.output_crc);
  det.emplace_back("ingest_mixed.output_crc(prefix)", I.output_crc);
  print_counters(det);

  const double lookups = static_cast<double>(J.traced.lookups);
  const long long q_hits = std::count(Q.traced.engine_hit.begin(),
                                      Q.traced.engine_hit.end(), 1);
  long long q_jobs = 0;
  for (const std::string& o : Q.traced.output) q_jobs += o.rfind("ok ", 0) == 0;
  std::printf("\nserve.cache_hit_ratio base: %lld of %lld lookups served without "
              "compute; query.engine_cache_hit_ratio base: %lld of %lld jobs\n",
              J.traced.lookups - J.traced.computes, J.traced.lookups, q_hits,
              q_jobs);
  std::printf("spans written to %s\n", spans_path.c_str());

  std::vector<Metric> m = {
      {"planar.generate_ms", self_ms(J.table, "planar.generate"), "ms"},
      {"planar.planarity_ms", self_ms(I.table, "planar.planarity"), "ms"},
      {"planar.triangulate_ms", self_ms(I.table, "planar.triangulate"), "ms"},
      {"core.fingerprint_ms", self_ms(J.table, "core.fingerprint"), "ms"},
      {"serve.job_self_ms",
       self_ms(J.table, "unattributed (serve.job self)") +
           self_ms(J.table, "serve.decode_verify"),
       "ms"},
      {"serve.cache_lookup_us", mean_us(J.table, "serve.cache_lookup"), "us"},
      {"serve.cache_hit_ratio",
       lookups > 0 ? 1.0 - static_cast<double>(J.traced.computes) / lookups : 0.0,
       "ratio"},
      {"io.corpus_load_ms", self_ms(J.table, "io.corpus_load"), "ms"},
      {"io.corpus_store_ms", self_ms(I.table, "io.corpus_store"), "ms"},
      {"io.index_codec_ms", self_ms(Q.table, "io.index_decode"), "ms"},
      {"io.frame_codec_us", W.daemon->frame_codec_us, "us"},
      {"daemon.ping_rtt_us", W.daemon->ping_rtt_us, "us"},
      {"daemon.queue_wait_ms", W.queue_wait_ms, "ms"},
      {"daemon.queue_depth", W.daemon->queue_depth, "count"},
      {"taskgraph.task_ms.spanning_tree",
       self_ms(J.table, "taskgraph.task.spanning_tree"), "ms"},
      {"taskgraph.task_ms.separator", self_ms(J.table, "taskgraph.task.separator"),
       "ms"},
      {"taskgraph.task_ms.dfs", self_ms(J.table, "taskgraph.task.dfs"), "ms"},
      {"taskgraph.task_ms.baseline", self_ms(J.table, "taskgraph.task.baseline"),
       "ms"},
      {"taskgraph.task_ms.query_index",
       self_ms(Q.table, "taskgraph.task.query_index"), "ms"},
      {"taskgraph.tasks_run", static_cast<double>(J.traced.tasks_run), "count"},
      {"taskgraph.cache_served", static_cast<double>(J.traced.cache_served),
       "count"},
      {"congest.run_ms", self_ms(J.table, "congest.run"), "ms"},
      {"congest.rounds", static_cast<double>(J.traced.rounds), "count"},
      {"congest.messages", static_cast<double>(J.traced.messages), "count"},
      {"query.walk_us",
       Q.tot.walked > 0 ? static_cast<double>(Q.tot.walk_ns) / 1e3 /
                              static_cast<double>(Q.tot.walked)
                        : 0.0,
       "us"},
      {"query.engine_cache_hit_ratio",
       q_jobs > 0 ? static_cast<double>(q_hits) / static_cast<double>(q_jobs) : 0.0,
       "ratio"},
      {"query.pieces_rebuilt", static_cast<double>(Q.tot.pieces_rebuilt), "count"},
      {"query.kill_ms", self_ms(Q.table, "query.kill"), "ms"},
      {"query.index_bytes", static_cast<double>(Q.tot.index_bytes), "bytes"},
      {"ingest.read_ms", self_ms(I.table, "ingest.read"), "ms"},
      {"ingest.other_ms", self_ms(I.table, "unattributed (ingest.job self)"), "ms"},
  };
  for (const char* wl : kWorkloads) {
    m.push_back({std::string("ledger.abs_unattributed_share.") + wl,
                 std::abs(led.at(wl).unattributed_share), "share"});
    m.push_back({std::string("trace.overhead_share.") + wl,
                 led.at(wl).overhead_share, "share"});
  }
  std::printf("\n-- per-layer metrics\n");
  for (const Metric& x : m) {
    std::printf("  %-36s %16.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  print_result(correct, attempted, static_cast<long long>(failures.size()), m);
  return correct ? 0 : 1;
}

}  // namespace perfbench
