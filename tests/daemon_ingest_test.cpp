// Ingest over the daemon protocol: kIngestReq/kIngestResp codecs and
// their malformed-payload rejections, end-to-end admission through
// plansepd's shared queue/quota/backpressure, rejection verdicts with
// typed codes and witnesses on the wire, and the full round-trip the
// tentpole promises: an external edge list ingested over one session is
// then served by a pipeline submit and a distance-query batch on the
// same daemon, with answers matching direct execution.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/dispatcher.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "core/fingerprint.hpp"
#include "io/binary.hpp"
#include "query/service.hpp"
#include "serve/cache.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

struct TestDaemon {
  ScratchDir dir;
  daemon::ServerOptions opts;
  std::unique_ptr<daemon::Server> server;

  explicit TestDaemon(int workers = 2, std::size_t queue = 64,
                      long long quota = 64)
      : dir("srv") {
    opts.socket_path = dir.path() + "/d.sock";
    opts.dispatcher.workers = workers;
    opts.dispatcher.max_queue = queue;
    opts.dispatcher.per_client_quota = quota;
    opts.dispatcher.batch.corpus_dir = dir.path() + "/corpus";
    opts.cache_bytes = 1u << 22;
    opts.cache_shards = 4;
    server = std::make_unique<daemon::Server>(opts);
    server->start();
  }
  ~TestDaemon() { server->stop(); }

  daemon::Client connect() {
    daemon::Client c;
    EXPECT_TRUE(c.connect(opts.socket_path));
    return c;
  }
};

// A 3x3 grid as an external edge list with sparse, shuffled ids.
std::string grid_text() {
  return "# a 3x3 grid, external ids (row-major 907 13 55 / 21 44 70 / "
         "660 8 501)\n"
         "907 13\r\n13 55\n21 44\r\n44 70\n660 8\n8 501\n"
         "907 21\n13 44\n55 70\n21 660\n44 8\n70 501\n";
}

daemon::IngestRequestPayload grid_request() {
  daemon::IngestRequestPayload req;
  req.family = "wiregrid";
  req.text = grid_text();
  return req;
}

// ------------------------------------------------------------- codecs ----

TEST(DaemonIngestProtocol, RequestAndResponseCodecsRoundTrip) {
  daemon::IngestRequestPayload req;
  req.priority = daemon::Priority::kHigh;
  req.format = 2;
  req.drop_self_loops = 1;
  req.drop_duplicates = 1;
  req.triangulate = 1;
  req.family = "roads";
  req.max_nodes = 1234;
  req.max_edges = 5678;
  req.text = "e 1 2\ne 2 3\n";
  const auto req2 =
      daemon::decode_ingest_request(daemon::encode_ingest_request(req));
  EXPECT_EQ(req2.priority, req.priority);
  EXPECT_EQ(req2.format, req.format);
  EXPECT_EQ(req2.drop_self_loops, req.drop_self_loops);
  EXPECT_EQ(req2.drop_duplicates, req.drop_duplicates);
  EXPECT_EQ(req2.triangulate, req.triangulate);
  EXPECT_EQ(req2.family, req.family);
  EXPECT_EQ(req2.max_nodes, req.max_nodes);
  EXPECT_EQ(req2.max_edges, req.max_edges);
  EXPECT_EQ(req2.text, req.text);

  daemon::IngestResponsePayload resp;
  resp.status = "rejected";
  resp.error_code = 9;
  resp.error = "ingest rejected [non-planar]: ...";
  resp.fingerprint = 0xdeadbeefcafef00dULL;
  resp.corpus_path = "/corpus/roads/abc.psg";
  resp.nodes = 9;
  resp.edges = 12;
  resp.witness = {{100, 200}, {200, 300}};
  const auto resp2 =
      daemon::decode_ingest_response(daemon::encode_ingest_response(resp));
  EXPECT_EQ(resp2.status, resp.status);
  EXPECT_EQ(resp2.error_code, resp.error_code);
  EXPECT_EQ(resp2.error, resp.error);
  EXPECT_EQ(resp2.fingerprint, resp.fingerprint);
  EXPECT_EQ(resp2.corpus_path, resp.corpus_path);
  EXPECT_EQ(resp2.nodes, resp.nodes);
  EXPECT_EQ(resp2.edges, resp.edges);
  EXPECT_EQ(resp2.witness, resp.witness);
}

TEST(DaemonIngestProtocol, MalformedRequestsAreRejected) {
  auto bytes = daemon::encode_ingest_request(grid_request());
  bytes[0] = 7;  // unknown priority
  EXPECT_THROW(daemon::decode_ingest_request(bytes), io::FormatError);

  bytes = daemon::encode_ingest_request(grid_request());
  bytes[1] = 3;  // unknown format
  EXPECT_THROW(daemon::decode_ingest_request(bytes), io::FormatError);

  // Truncation anywhere must throw, never crash or mis-decode.
  const auto full = daemon::encode_ingest_request(grid_request());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_THROW(daemon::decode_ingest_request(prefix), io::FormatError)
        << "cut=" << cut;
  }
  // Trailing garbage must throw too.
  auto padded = full;
  padded.push_back(0);
  EXPECT_THROW(daemon::decode_ingest_request(padded), io::FormatError);
}

TEST(DaemonIngestProtocol, HostileWitnessCountIsBounded) {
  daemon::IngestResponsePayload resp;
  resp.status = "rejected";
  auto bytes = daemon::encode_ingest_response(resp);
  // The witness count is the last u32 before the (empty) pair data;
  // patch it to a huge value to fake a hostile allocation request.
  bytes[bytes.size() - 4] = 0xff;
  bytes[bytes.size() - 3] = 0xff;
  bytes[bytes.size() - 2] = 0xff;
  bytes[bytes.size() - 1] = 0x7f;
  EXPECT_THROW(daemon::decode_ingest_response(bytes), io::FormatError);
}

// ------------------------------------------------------------ serving ----

TEST(DaemonIngest, AcceptLandsInCorpusAndServesPipelineAndQueries) {
  TestDaemon d;
  daemon::Client c = d.connect();

  const auto resp = c.ingest(1, grid_request());
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->status, "ok") << resp->error;
  EXPECT_EQ(resp->nodes, 9);
  EXPECT_EQ(resp->edges, 12);
  ASSERT_FALSE(resp->corpus_path.empty());
  EXPECT_TRUE(fs::exists(resp->corpus_path));
  EXPECT_NE(resp->corpus_path.find("wiregrid"), std::string::npos);
  EXPECT_NE(resp->corpus_path.find(core::fingerprint_hex(resp->fingerprint)),
            std::string::npos);

  // The ingested artifact is served unchanged by a pipeline submit...
  const std::string spec = "--graph=" + resp->corpus_path + " --algo=dfs";
  c.submit(2, daemon::Priority::kNormal, spec);
  const auto rf = c.read_matching(daemon::FrameType::kResponse, 2, 30000);
  ASSERT_TRUE(rf.has_value());
  const auto row = daemon::decode_response(rf->payload);
  EXPECT_EQ(row.status, "ok") << row.row;

  // ...and by a distance-query batch, matching direct execution.
  daemon::QueryRequestPayload qreq;
  qreq.spec_line = "--graph=" + resp->corpus_path;
  qreq.leaf_size = 4;
  for (std::int32_t u = 0; u < 9; ++u) qreq.pairs.emplace_back(0, u);
  const auto served = c.query(3, qreq);
  ASSERT_TRUE(served.has_value());
  ASSERT_EQ(served->status, "ok") << served->error;

  query::QueryJob job;
  job.instance.graph_path = resp->corpus_path;
  job.leaf_size = 4;
  job.pairs.assign(qreq.pairs.begin(), qreq.pairs.end());
  serve::ResultCache cache({1u << 22, ""});
  serve::BatchOptions bopts;
  const auto direct = query::run_query_job(job, bopts, cache, nullptr);
  ASSERT_EQ(direct.status, "ok") << direct.error;
  EXPECT_EQ(served->distances, direct.distances);

  // Metrics surface the new counters.
  const auto metrics = c.metrics(100);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("\"daemon/ingests\":1"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\"daemon/ingest_accepted\":1"), std::string::npos)
      << *metrics;
}

TEST(DaemonIngest, RejectionsCarryTypedCodeAndWitness) {
  TestDaemon d;
  daemon::Client c = d.connect();

  // K5 with one pendant edge: non-planar, witness = the K5 block.
  std::string k5 = "1 6\n";
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      k5 += std::to_string(a + 1) + " " + std::to_string(b + 1) + "\n";
    }
  }
  daemon::IngestRequestPayload req;
  req.text = k5;
  const auto resp = c.ingest(1, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "rejected");
  EXPECT_EQ(resp->error_code, 9);  // IngestErrorCode::kNonPlanar
  EXPECT_NE(resp->error.find("non-planar"), std::string::npos);
  EXPECT_EQ(resp->witness.size(), 10u);

  // A parse rejection is a *successful* job: typed code, session intact.
  daemon::IngestRequestPayload bad;
  bad.text = "1 2\nnot an edge\n";
  const auto resp2 = c.ingest(2, bad);
  ASSERT_TRUE(resp2.has_value());
  EXPECT_EQ(resp2->status, "rejected");
  EXPECT_EQ(resp2->error_code, 1);  // IngestErrorCode::kParse
  EXPECT_NE(resp2->error.find("[parse] line 2"), std::string::npos);

  // Nothing landed in the corpus.
  EXPECT_FALSE(fs::exists(d.opts.dispatcher.batch.corpus_dir + "/ingest"));

  // The session still serves pings and well-formed work.
  EXPECT_TRUE(c.ping(90));
  const auto ok = c.ingest(3, grid_request());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, "ok");
}

TEST(DaemonIngest, TriangulateOnPathIsRejectedAndDaemonSurvives) {
  TestDaemon d;
  daemon::Client c = d.connect();

  // Planar but not 2-connected: apex triangulation cannot run on it, so
  // the request gets the typed verdict instead of taking the daemon down.
  daemon::IngestRequestPayload req;
  req.text = "1 2\n2 3\n3 4\n";
  req.triangulate = 1;
  const auto resp = c.ingest(1, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "rejected");
  EXPECT_EQ(resp->error_code, 10);  // IngestErrorCode::kNotBiconnected
  EXPECT_NE(resp->error.find("[not-biconnected]"), std::string::npos);

  EXPECT_TRUE(c.ping(2));
}

// A job that fails outside its class's typed outcomes — here a corpus
// write whose directory cannot be created — becomes an "error" outcome
// on its worker instead of escaping it.
TEST(DaemonIngest, FailedCorpusWriteIsAnErrorOutcome) {
  ScratchDir dir("blocked");
  const std::string blocker = dir.path() + "/not-a-directory";
  std::ofstream(blocker) << "x";
  daemon::DaemonMetrics metrics;
  serve::ShardedResultCache cache({1u << 20, 2, ""});
  daemon::DispatcherOptions opts;
  opts.workers = 1;
  opts.batch.corpus_dir = blocker + "/corpus";
  daemon::Dispatcher disp(opts, cache, metrics);

  auto job = std::make_shared<daemon::IngestJob>();
  job->text = grid_text();
  std::optional<daemon::IngestResponsePayload> got;
  ASSERT_EQ(disp.submit({1, 7, daemon::Priority::kNormal, job},
                        [&](const daemon::JobDone& done) {
                          got = std::get<daemon::IngestResponsePayload>(
                              done.outcome);
                        }),
            daemon::Admission::kAdmitted);
  disp.drain();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, "error");
  EXPECT_EQ(got->error_code, 0);
  EXPECT_NE(got->error.find("cannot create corpus directory"),
            std::string::npos)
      << got->error;
  EXPECT_EQ(metrics.counter("daemon/errors"), 1);
}

TEST(DaemonIngest, MalformedFramePayloadKeepsSessionAlive) {
  TestDaemon d;
  daemon::Client c = d.connect();

  // A syntactically valid frame whose ingest payload is garbage.
  c.send_frame(daemon::FrameType::kIngestReq, 5, {0xff, 0xff, 0xff});
  const auto err = c.read_matching(daemon::FrameType::kError, 5, 10000);
  ASSERT_TRUE(err.has_value());
  const auto status = daemon::decode_status(err->payload);
  EXPECT_EQ(status.code, daemon::StatusCode::kMalformedFrame);

  EXPECT_TRUE(c.ping(6));
}

TEST(DaemonIngest, SharesAdmissionQuotaWithOtherJobClasses) {
  // Quota 2: two queued ingests exhaust it for submits and queries alike.
  TestDaemon d(/*workers=*/1, /*queue=*/64, /*quota=*/2);
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.pause(1));

  c.submit_ingest(10, grid_request());
  c.submit_ingest(11, grid_request());
  c.submit_ingest(12, grid_request());
  const auto rej = c.read_matching(daemon::FrameType::kReject, 12, 10000);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(daemon::decode_status(rej->payload).code,
            daemon::StatusCode::kQuotaExceeded);

  ASSERT_TRUE(c.resume(2));
  for (std::uint64_t id = 10; id <= 11; ++id) {
    const auto f =
        c.read_matching(daemon::FrameType::kIngestResp, id, 30000);
    ASSERT_TRUE(f.has_value()) << id;
    EXPECT_EQ(daemon::decode_ingest_response(f->payload).status, "ok");
  }
}

TEST(DaemonIngest, ClientCapsOnlyTightenServerDefaults) {
  TestDaemon d;
  daemon::Client c = d.connect();

  daemon::IngestRequestPayload req = grid_request();
  req.max_nodes = 4;  // the grid has 9 distinct nodes
  const auto resp = c.ingest(1, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, "rejected");
  EXPECT_EQ(resp->error_code, 6);  // IngestErrorCode::kNodeLimit
}

TEST(DaemonIngest, DrainRejectsNewIngests) {
  TestDaemon d;
  daemon::Client c = d.connect();
  const auto summary = c.drain(1);
  ASSERT_TRUE(summary.has_value());

  daemon::Client c2 = d.connect();
  c2.submit_ingest(2, grid_request());
  const auto rej = c2.read_matching(daemon::FrameType::kReject, 2, 10000);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(daemon::decode_status(rej->payload).code,
            daemon::StatusCode::kDraining);
}

}  // namespace
}  // namespace plansep
