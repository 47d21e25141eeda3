// Query serving over the daemon protocol: kQueryReq/kQueryResp codecs and
// their malformed-payload rejections, end-to-end serving mixed with
// pipeline submits, daemon-vs-direct answer identity, cold-vs-warm
// identity with prepared-engine warm hits, dead-edge queries, and shared
// admission control (backpressure and quota apply to queries unchanged).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "io/binary.hpp"
#include "query/service.hpp"
#include "serve/cache.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

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

daemon::QueryRequestPayload small_request() {
  daemon::QueryRequestPayload req;
  req.spec_line = "--family=triangulation --n=64 --seed=4";
  req.leaf_size = 8;
  for (std::int32_t u = 0; u < 64; u += 5) {
    req.pairs.emplace_back(u, (u * 7 + 3) % 64);
  }
  return req;
}

// ------------------------------------------------------------- codecs ----

TEST(DaemonQueryProtocol, RequestAndResponseCodecsRoundTrip) {
  daemon::QueryRequestPayload req;
  req.priority = daemon::Priority::kHigh;
  req.spec_line = "--family=grid --n=25 --seed=3";
  req.leaf_size = 16;
  req.pairs = {{0, 24}, {3, 3}};
  req.dead_edges = {{1, 2}};
  const auto req2 =
      daemon::decode_query_request(daemon::encode_query_request(req));
  EXPECT_EQ(req2.priority, req.priority);
  EXPECT_EQ(req2.spec_line, req.spec_line);
  EXPECT_EQ(req2.leaf_size, req.leaf_size);
  EXPECT_EQ(req2.pairs, req.pairs);
  EXPECT_EQ(req2.dead_edges, req.dead_edges);

  daemon::QueryResponsePayload resp;
  resp.status = "ok";
  resp.distances = {0, 7, -1};
  resp.engine_cache_hit = 1;
  const auto resp2 =
      daemon::decode_query_response(daemon::encode_query_response(resp));
  EXPECT_EQ(resp2.status, resp.status);
  EXPECT_EQ(resp2.error, resp.error);
  EXPECT_EQ(resp2.distances, resp.distances);
  EXPECT_EQ(resp2.engine_cache_hit, resp.engine_cache_hit);
}

TEST(DaemonQueryProtocol, MalformedRequestsAreRejected) {
  // Unknown priority byte.
  auto bytes = daemon::encode_query_request(small_request());
  bytes[0] = 9;
  EXPECT_THROW(daemon::decode_query_request(bytes), io::FormatError);

  // Truncation anywhere must throw, never crash or mis-decode.
  const auto full = daemon::encode_query_request(small_request());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + cut);
    EXPECT_THROW(daemon::decode_query_request(prefix), io::FormatError)
        << "cut=" << cut;
  }

  // Trailing garbage.
  auto padded = full;
  padded.push_back(0);
  EXPECT_THROW(daemon::decode_query_request(padded), io::FormatError);

  // A hostile pair count larger than any frame payload could carry.
  io::ByteWriter w;
  w.u8(0);
  w.str("--family=grid --n=9 --seed=1");
  w.i32(4);
  w.u32(0xffffffffu);  // pair count
  EXPECT_THROW(daemon::decode_query_request(w.take()), io::FormatError);
}

// ---------------------------------------------------------- end-to-end ----

TEST(DaemonQuery, ServesBatchedQueriesColdThenWarm) {
  TestDaemon d;
  daemon::Client c = d.connect();
  const auto req = small_request();

  const auto cold = c.query(1, req);
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(cold->status, "ok") << cold->error;
  ASSERT_EQ(cold->distances.size(), req.pairs.size());
  EXPECT_EQ(cold->engine_cache_hit, 0);

  const auto warm = c.query(2, req);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->status, "ok") << warm->error;
  EXPECT_EQ(warm->engine_cache_hit, 1);
  EXPECT_EQ(warm->distances, cold->distances);

  const auto metrics = c.metrics(100);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("\"daemon/queries\":2"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("\"daemon/query_engine_hits\":1"),
            std::string::npos)
      << *metrics;
}

TEST(DaemonQuery, DaemonAnswersMatchDirectExecution) {
  // Direct: run_query_job against a private cache.
  query::QueryJob job;
  job.instance.family = "triangulation";
  job.instance.n = 64;
  job.instance.seed = 4;
  job.leaf_size = 8;
  const auto req = small_request();
  job.pairs.assign(req.pairs.begin(), req.pairs.end());
  serve::ResultCache cache({1u << 22, ""});
  serve::BatchOptions opts;
  const auto direct = query::run_query_job(job, opts, cache, nullptr);
  ASSERT_EQ(direct.status, "ok") << direct.error;

  TestDaemon d;
  daemon::Client c = d.connect();
  const auto served = c.query(1, req);
  ASSERT_TRUE(served.has_value());
  ASSERT_EQ(served->status, "ok") << served->error;
  EXPECT_EQ(served->distances, direct.distances);
}

TEST(DaemonQuery, DeadEdgeQueriesAnswerOnThePrunedGraph) {
  TestDaemon d;
  daemon::Client c = d.connect();

  daemon::QueryRequestPayload req;
  req.spec_line = "--family=cycle --n=24 --seed=1";
  req.leaf_size = 4;
  req.pairs = {{0, 6}};
  const auto clean = c.query(1, req);
  ASSERT_TRUE(clean.has_value());
  ASSERT_EQ(clean->status, "ok") << clean->error;
  EXPECT_EQ(clean->distances[0], 6);

  req.dead_edges = {{0, 1}};
  const auto cut = c.query(2, req);
  ASSERT_TRUE(cut.has_value());
  ASSERT_EQ(cut->status, "ok") << cut->error;
  EXPECT_EQ(cut->distances[0], 18);  // the long way round the cycle
  EXPECT_EQ(cut->engine_cache_hit, 0) << "dead-edge jobs are private";

  // The shared engine was not poisoned by the kill.
  req.dead_edges.clear();
  const auto clean2 = c.query(3, req);
  ASSERT_TRUE(clean2.has_value());
  EXPECT_EQ(clean2->distances[0], 6);
}

TEST(DaemonQuery, MixesWithPipelineSubmitsOnOneSession) {
  TestDaemon d;
  daemon::Client c = d.connect();

  c.submit(1, daemon::Priority::kNormal, "--family=grid --n=25 --seed=1");
  c.submit_query(2, small_request());
  c.submit(3, daemon::Priority::kNormal, "--family=cycle --n=16 --seed=2");

  // Responses arrive in admission order regardless of job class.
  auto f1 = c.next_frame(30000);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, static_cast<std::uint8_t>(daemon::FrameType::kResponse));
  EXPECT_EQ(f1->id, 1u);
  auto f2 = c.next_frame(30000);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type,
            static_cast<std::uint8_t>(daemon::FrameType::kQueryResp));
  EXPECT_EQ(f2->id, 2u);
  EXPECT_EQ(daemon::decode_query_response(f2->payload).status, "ok");
  auto f3 = c.next_frame(30000);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->type, static_cast<std::uint8_t>(daemon::FrameType::kResponse));
  EXPECT_EQ(f3->id, 3u);
}

TEST(DaemonQuery, QueriesShareAdmissionControl) {
  // Quota 2, queue 64: the third outstanding query for one client is
  // rejected with kQuotaExceeded, exactly like a pipeline submit.
  TestDaemon d(/*workers=*/1, /*queue=*/64, /*quota=*/2);
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.pause(100));

  const auto req = small_request();
  c.submit_query(1, req);
  c.submit_query(2, req);
  c.submit_query(3, req);
  const auto rej = c.read_matching(daemon::FrameType::kReject, 3, 10000);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(daemon::decode_status(rej->payload).code,
            daemon::StatusCode::kQuotaExceeded);

  ASSERT_TRUE(c.resume(100));
  const auto r1 = c.read_matching(daemon::FrameType::kQueryResp, 1, 30000);
  const auto r2 = c.read_matching(daemon::FrameType::kQueryResp, 2, 30000);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(daemon::decode_query_response(r1->payload).distances,
            daemon::decode_query_response(r2->payload).distances);
}

TEST(DaemonQuery, BackpressureAppliesToQueries) {
  // Queue 1, quota high: with dispatch paused, the queue holds one job;
  // the next query bounces with kQueueFull.
  TestDaemon d(/*workers=*/1, /*queue=*/1, /*quota=*/64);
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.pause(100));

  const auto req = small_request();
  c.submit_query(1, req);
  c.submit_query(2, req);
  const auto rej = c.read_matching(daemon::FrameType::kReject, 2, 10000);
  ASSERT_TRUE(rej.has_value());
  EXPECT_EQ(daemon::decode_status(rej->payload).code,
            daemon::StatusCode::kQueueFull);

  ASSERT_TRUE(c.resume(100));
  const auto r1 = c.read_matching(daemon::FrameType::kQueryResp, 1, 30000);
  ASSERT_TRUE(r1.has_value());
}

TEST(DaemonQuery, BadSpecAndBadPairsYieldTypedErrors) {
  TestDaemon d;
  daemon::Client c = d.connect();

  daemon::QueryRequestPayload req;
  req.spec_line = "--family=grid --n=banana";
  req.pairs = {{0, 1}};
  c.submit_query(1, req);
  const auto err = c.read_matching(daemon::FrameType::kError, 1, 10000);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(daemon::decode_status(err->payload).code,
            daemon::StatusCode::kBadJobSpec);

  // A generated instance over ingest's node cap (2^20) is rejected before
  // admission, so no worker starts generating it.
  req.spec_line = "--family=grid --n=1048577 --seed=1";
  c.submit_query(2, req);
  const auto cap = c.read_matching(daemon::FrameType::kError, 2, 10000);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(daemon::decode_status(cap->payload).code,
            daemon::StatusCode::kBadJobSpec);

  // Spec parses, pairs are out of range: the job runs and reports an
  // error outcome (a data error, not a protocol error).
  req.spec_line = "--family=grid --n=25 --seed=1";
  req.leaf_size = 4;
  req.pairs = {{0, 9999}};
  const auto out = c.query(3, req);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, "error");
  EXPECT_NE(out->error.find("query pair"), std::string::npos) << out->error;
}

}  // namespace
}  // namespace plansep
