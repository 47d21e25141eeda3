// The serving daemon (src/daemon/): wire-frame and payload codecs, the
// protocol fuzz corpus (corrupt frames must yield typed errors, never
// crashes), admission control (backpressure, quotas, priorities, drain),
// per-client response ordering, determinism across runs and worker
// counts, and the chaos soak — 10k+ mixed jobs under seeded worker
// crash/retry, byte-identical to a fault-free serial reference.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/dispatcher.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "io/artifact.hpp"
#include "io/frame.hpp"
#include "obs/metrics.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

// Extracts a counter value from a metrics JSON document ("name":value).
long long counter_in_json(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

// ------------------------------------------------------------- codecs ----

TEST(DaemonProtocol, PayloadCodecsRoundTrip) {
  const daemon::SubmitPayload sub{daemon::Priority::kHigh,
                                  "--family=grid --n=25 --seed=3"};
  const auto sub2 = daemon::decode_submit(daemon::encode_submit(sub));
  EXPECT_EQ(sub2.priority, sub.priority);
  EXPECT_EQ(sub2.spec_line, sub.spec_line);

  const daemon::ResponsePayload resp{"ok", 2, "{\"job\":1}"};
  const auto resp2 = daemon::decode_response(daemon::encode_response(resp));
  EXPECT_EQ(resp2.status, resp.status);
  EXPECT_EQ(resp2.attempts, resp.attempts);
  EXPECT_EQ(resp2.row, resp.row);

  const daemon::StatusPayload st{daemon::StatusCode::kQueueFull, "full"};
  const auto st2 = daemon::decode_status(daemon::encode_status(st));
  EXPECT_EQ(st2.code, st.code);
  EXPECT_EQ(st2.detail, st.detail);

  const daemon::TextPayload txt{"{\"a\":1}"};
  EXPECT_EQ(daemon::decode_text(daemon::encode_text(txt)).text, txt.text);
}

TEST(DaemonProtocol, MalformedPayloadsThrowFormatError) {
  // Unknown priority byte.
  auto bytes = daemon::encode_submit({daemon::Priority::kNormal, "x"});
  bytes[0] = 9;
  EXPECT_THROW(daemon::decode_submit(bytes), io::FormatError);
  // Trailing garbage.
  auto resp = daemon::encode_response({"ok", 1, "{}"});
  resp.push_back(0);
  EXPECT_THROW(daemon::decode_response(resp), io::FormatError);
  // Truncated.
  auto st = daemon::encode_status({daemon::StatusCode::kDraining, "bye"});
  st.resize(st.size() - 1);
  EXPECT_THROW(daemon::decode_status(st), io::FormatError);
  // Unknown status code.
  auto st2 = daemon::encode_status({daemon::StatusCode::kDraining, "bye"});
  st2[0] = 200;
  EXPECT_THROW(daemon::decode_status(st2), io::FormatError);
}

TEST(DaemonProtocol, StatusCodeNamesAreStable) {
  EXPECT_STREQ(daemon::status_code_name(daemon::StatusCode::kQueueFull),
               "queue_full");
  EXPECT_STREQ(daemon::status_code_name(daemon::StatusCode::kMalformedFrame),
               "malformed_frame");
}

// ------------------------------------------------------------- frames ----

TEST(FrameCodec, RoundTripsAcrossArbitraryChunking) {
  io::Frame a{7, 42, {1, 2, 3, 4, 5}};
  io::Frame b{8, 43, {}};
  std::vector<std::uint8_t> wire = io::encode_frame(a);
  const auto wb = io::encode_frame(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  // Feed one byte at a time: framing must be chunking-independent.
  io::FrameDecoder dec;
  std::vector<io::Frame> got;
  for (const std::uint8_t byte : wire) {
    dec.feed(&byte, 1);
    while (auto f = dec.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, a.type);
  EXPECT_EQ(got[0].id, a.id);
  EXPECT_EQ(got[0].payload, a.payload);
  EXPECT_EQ(got[1].type, b.type);
  EXPECT_EQ(dec.partial_bytes(), 0u);
}

TEST(FrameCodec, TruncationIsNotAnErrorButPartialBytesShow) {
  const auto wire = io::encode_frame({1, 1, {9, 9, 9}});
  io::FrameDecoder dec;
  dec.feed(wire.data(), wire.size() - 2);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_GT(dec.partial_bytes(), 0u);
  EXPECT_FALSE(dec.poisoned());
}

TEST(FrameCodec, CorruptionPoisonsTheDecoder) {
  auto bad_crc = io::encode_frame({1, 1, {9, 9, 9}});
  bad_crc.back() ^= 0xFF;
  io::FrameDecoder dec;
  dec.feed(bad_crc.data(), bad_crc.size());
  EXPECT_THROW(dec.next(), io::FormatError);
  EXPECT_TRUE(dec.poisoned());
  EXPECT_THROW(dec.next(), io::FormatError);  // stays poisoned

  auto bad_magic = io::encode_frame({1, 1, {}});
  bad_magic[0] ^= 0xFF;
  io::FrameDecoder dec2;
  EXPECT_THROW(dec2.feed(bad_magic.data(), bad_magic.size()),
               io::FormatError);

  // A length prefix beyond kMaxFramePayload is rejected from the header
  // alone — no allocation, no waiting for the (absurd) payload.
  io::ByteWriter w;
  w.u32(io::kFrameMagic);
  w.u8(1);
  w.u64(1);
  w.u32(io::kMaxFramePayload + 1);
  const auto oversized = w.take();
  io::FrameDecoder dec3;
  EXPECT_THROW(dec3.feed(oversized.data(), oversized.size()),
               io::FormatError);
}

// ----------------------------------------------------------- test rig ----

constexpr const char* kSpecA = "--family=grid --n=25 --seed=1";
constexpr const char* kSpecB = "--family=cycle --n=16 --seed=2 --algo=dfs";
constexpr const char* kSpecC =
    "--family=outerplanar --n=20 --seed=3 --algo=separator";

struct TestDaemon {
  ScratchDir dir;
  daemon::ServerOptions opts;
  std::unique_ptr<daemon::Server> server;

  explicit TestDaemon(int workers = 2, std::size_t queue = 64,
                      long long quota = 64, double chaos = 0.0,
                      std::string corpus = "")
      : dir("srv") {
    opts.socket_path = dir.path() + "/d.sock";
    opts.dispatcher.batch.corpus_dir = std::move(corpus);
    opts.dispatcher.workers = workers;
    opts.dispatcher.max_queue = queue;
    opts.dispatcher.per_client_quota = quota;
    opts.dispatcher.chaos_seed = 7;
    opts.dispatcher.chaos_crash_prob = chaos;
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

// Collects n kResponse frames, asserting per-client admission order (ids
// strictly in submit order for a single client) and returning id → row.
std::map<std::uint64_t, daemon::ResponsePayload> collect_responses(
    daemon::Client& c, std::size_t n) {
  std::map<std::uint64_t, daemon::ResponsePayload> out;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto f = c.next_frame(30000);
    if (!f.has_value()) {
      ADD_FAILURE() << "timed out after " << i << " of " << n << " responses";
      break;
    }
    EXPECT_EQ(f->type, static_cast<std::uint8_t>(daemon::FrameType::kResponse));
    if (i > 0) {
      EXPECT_GT(f->id, last) << "responses out of admission order";
    }
    last = f->id;
    out.emplace(f->id, daemon::decode_response(f->payload));
  }
  return out;
}

// ---------------------------------------------------------- happy path ----

TEST(DaemonServer, ServesJobsInAdmissionOrderWithWarmHits) {
  TestDaemon d;
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.ping(999));

  // Ids are submitted ascending; the duplicate of kSpecA must serve warm.
  c.submit(1, daemon::Priority::kNormal, kSpecA);
  c.submit(2, daemon::Priority::kNormal, kSpecB);
  c.submit(3, daemon::Priority::kNormal, kSpecC);
  c.submit(4, daemon::Priority::kNormal, kSpecA);  // duplicate → warm
  const auto rows = collect_responses(c, 4);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& [id, resp] : rows) {
    EXPECT_EQ(resp.status, "ok") << "id " << id << ": " << resp.row;
    EXPECT_NE(resp.row.find("\"job\":" + std::to_string(id)),
              std::string::npos)
        << resp.row;
  }
  // Same spec, different id: rows differ only in the leading job index.
  const std::string& r1 = rows.at(1).row;
  const std::string& r4 = rows.at(4).row;
  EXPECT_EQ(r1.substr(r1.find(',')), r4.substr(r4.find(',')));

  const auto metrics = c.metrics(1000);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_GT(counter_in_json(*metrics, "daemon/cache_served_warm"), 0);
  EXPECT_EQ(counter_in_json(*metrics, "daemon/admitted"), 4);
  EXPECT_EQ(counter_in_json(*metrics, "daemon/completed"), 4);
}

TEST(DaemonServer, ResponsesAreByteIdenticalAcrossRunsAndWorkerCounts) {
  const auto run = [](int workers) {
    TestDaemon d(workers);
    daemon::Client c = d.connect();
    for (std::uint64_t id = 0; id < 12; ++id) {
      const char* spec = id % 3 == 0 ? kSpecA : (id % 3 == 1 ? kSpecB : kSpecC);
      c.submit(id, daemon::Priority::kNormal, spec);
    }
    std::string bytes;
    for (std::size_t i = 0; i < 12; ++i) {
      auto f = c.next_frame(30000);
      EXPECT_TRUE(f.has_value());
      if (!f) break;
      bytes.append(f->payload.begin(), f->payload.end());
    }
    return bytes;
  };
  const std::string serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run(1)) << "same run, same bytes";
  EXPECT_EQ(serial, run(4)) << "worker count leaked into the byte stream";
}

// ------------------------------------------------------------ admission ----

TEST(DaemonServer, PausedQueueGivesDeterministicBackpressure) {
  TestDaemon d(/*workers=*/2, /*queue=*/4, /*quota=*/64);
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.pause(500));  // freeze dispatch; the queue fills verbatim

  for (std::uint64_t id = 0; id < 10; ++id) {
    c.submit(id, daemon::Priority::kNormal, kSpecA);
  }
  // Exactly queue-capacity admissions; the other 6 reject immediately.
  int rejects = 0;
  for (int i = 0; i < 6; ++i) {
    auto f = c.read_matching(daemon::FrameType::kReject,
                             static_cast<std::uint64_t>(4 + i), 10000);
    ASSERT_TRUE(f.has_value()) << "missing reject " << 4 + i;
    const auto st = daemon::decode_status(f->payload);
    EXPECT_EQ(st.code, daemon::StatusCode::kQueueFull);
    ++rejects;
  }
  EXPECT_EQ(rejects, 6);

  ASSERT_TRUE(c.resume(501));
  const auto rows = collect_responses(c, 4);
  EXPECT_EQ(rows.size(), 4u);
  const auto metrics = c.metrics(502);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(counter_in_json(*metrics, "daemon/rejected_backpressure"), 6);
  EXPECT_EQ(counter_in_json(*metrics, "daemon/admitted"), 4);
}

TEST(DaemonServer, PerClientQuotaRejectsTheExcess) {
  TestDaemon d(/*workers=*/2, /*queue=*/64, /*quota=*/3);
  daemon::Client c = d.connect();
  ASSERT_TRUE(c.pause(500));

  for (std::uint64_t id = 0; id < 8; ++id) {
    c.submit(id, daemon::Priority::kNormal, kSpecB);
  }
  for (std::uint64_t id = 3; id < 8; ++id) {
    auto f = c.read_matching(daemon::FrameType::kReject, id, 10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kQuotaExceeded);
  }
  ASSERT_TRUE(c.resume(501));
  EXPECT_EQ(collect_responses(c, 3).size(), 3u);
  // Quota slots freed after delivery: a fresh batch admits again.
  c.submit(100, daemon::Priority::kNormal, kSpecB);
  EXPECT_EQ(collect_responses(c, 1).count(100), 1u);
}

TEST(DaemonDispatcher, HighPriorityDequeuesFirst) {
  daemon::DaemonMetrics metrics;
  serve::ShardedResultCache cache({1u << 22, 4, ""});
  daemon::DispatcherOptions opts;
  opts.workers = 1;  // one worker → completion order is dequeue order
  opts.max_queue = 64;
  opts.per_client_quota = 64;
  daemon::Dispatcher disp(opts, cache, metrics);
  disp.pause();

  std::mutex mu;
  std::vector<std::uint64_t> order;
  const auto record = [&](const daemon::JobDone& done) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(done.id);
  };
  // One client per submission: a single client's callbacks would arrive
  // in its admission order, whatever the dequeue order.
  const auto spec = *serve::parse_job_line(kSpecA, 0);
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(disp.submit({id, id, daemon::Priority::kNormal, spec}, record),
              daemon::Admission::kAdmitted);
  }
  for (std::uint64_t id = 10; id < 13; ++id) {
    EXPECT_EQ(disp.submit({id, id, daemon::Priority::kHigh, spec}, record),
              daemon::Admission::kAdmitted);
  }
  disp.resume();
  disp.wait_idle();
  ASSERT_EQ(order.size(), 6u);
  const std::vector<std::uint64_t> want{10, 11, 12, 0, 1, 2};
  EXPECT_EQ(order, want);
}

// A client's callbacks fire in its admission order even when a later
// submission finishes first: with one paused worker, the high-priority
// job admitted second runs first, and its callback waits for the normal
// job admitted before it.
TEST(DaemonDispatcher, DeliversEachClientsJobsInAdmissionOrder) {
  daemon::DaemonMetrics metrics;
  serve::ShardedResultCache cache({1u << 22, 4, ""});
  daemon::DispatcherOptions opts;
  opts.workers = 1;
  daemon::Dispatcher disp(opts, cache, metrics);
  disp.pause();

  std::vector<std::uint64_t> delivered;  // one client: callbacks never overlap
  const auto record = [&](const daemon::JobDone& done) {
    delivered.push_back(done.id);
  };
  const auto spec = *serve::parse_job_line(kSpecA, 0);
  ASSERT_EQ(disp.submit({1, 0, daemon::Priority::kNormal, spec}, record),
            daemon::Admission::kAdmitted);
  ASSERT_EQ(disp.submit({1, 1, daemon::Priority::kHigh, spec}, record),
            daemon::Admission::kAdmitted);
  EXPECT_EQ(disp.outstanding(1), 2);
  disp.resume();
  disp.wait_idle();

  // The per-job spans record completion order: the high job ran first.
  std::vector<long long> ran;
  const obs::MetricsRegistry snap = metrics.snapshot();
  for (const obs::SpanRecord& span : snap.spans()) {
    if (span.name == "daemon/job") ran.push_back(span.notes.at(0).second);
  }
  EXPECT_EQ(ran, (std::vector<long long>{1, 0}));
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(disp.outstanding(1), 0);
}

// ----------------------------------------------------------- fuzz corpus ----

TEST(DaemonServer, CorruptFramesGetTypedErrorsAndTheDaemonSurvives) {
  TestDaemon d;

  // Bad CRC: typed kMalformedFrame error, then the connection closes.
  {
    daemon::Client c = d.connect();
    auto wire = daemon::make_frame(daemon::FrameType::kPing, 1);
    wire.back() ^= 0xFF;
    c.send_raw(wire);
    auto f = c.next_frame(10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, static_cast<std::uint8_t>(daemon::FrameType::kError));
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kMalformedFrame);
    EXPECT_FALSE(c.next_frame(2000).has_value());  // server hung up
  }
  // Bad magic: same typed error.
  {
    daemon::Client c = d.connect();
    auto wire = daemon::make_frame(daemon::FrameType::kPing, 2);
    wire[0] ^= 0xFF;
    c.send_raw(wire);
    auto f = c.next_frame(10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kMalformedFrame);
  }
  // Oversized length prefix: rejected from the header, typed error.
  {
    daemon::Client c = d.connect();
    io::ByteWriter w;
    w.u32(io::kFrameMagic);
    w.u8(1);
    w.u64(3);
    w.u32(io::kMaxFramePayload + 1);
    c.send_raw(w.take());
    auto f = c.next_frame(10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kMalformedFrame);
  }
  // Truncated length prefix, then disconnect: no response owed, no crash.
  {
    daemon::Client c = d.connect();
    const auto wire = daemon::make_frame(daemon::FrameType::kPing, 4);
    c.send_raw({wire.begin(), wire.begin() + 9});
    c.close();
  }
  // Mid-frame disconnect: header complete, payload cut short.
  {
    daemon::Client c = d.connect();
    const auto wire = daemon::make_frame(
        daemon::FrameType::kSubmit, 5,
        daemon::encode_submit({daemon::Priority::kNormal, kSpecA}));
    c.send_raw({wire.begin(), wire.end() - 10});
    c.close();
  }
  // A submit payload that is not a valid SubmitPayload (frame CRC fine):
  // typed error, session survives.
  {
    daemon::Client c = d.connect();
    c.send_frame(daemon::FrameType::kSubmit, 6, {0xDE, 0xAD, 0xBE, 0xEF});
    auto f = c.read_matching(daemon::FrameType::kError, 6, 10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kMalformedFrame);
    EXPECT_TRUE(c.ping(7)) << "session should survive a payload error";
  }
  // Unknown frame type: typed error, session survives.
  {
    daemon::Client c = d.connect();
    c.send_raw(io::encode_frame({201, 8, {}}));
    auto f = c.read_matching(daemon::FrameType::kError, 8, 10000);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(daemon::decode_status(f->payload).code,
              daemon::StatusCode::kMalformedFrame);
    EXPECT_TRUE(c.ping(9));
  }

  // After the whole corpus the daemon still serves real work.
  daemon::Client c = d.connect();
  c.submit(42, daemon::Priority::kNormal, kSpecA);
  const auto rows = collect_responses(c, 1);
  ASSERT_EQ(rows.count(42), 1u);
  EXPECT_EQ(rows.at(42).status, "ok");
}

TEST(DaemonServer, BadJobSpecIsRejectedAndTheSessionContinues) {
  ScratchDir corpus("corpus");
  TestDaemon d(2, 64, 64, 0.0, corpus.path());
  daemon::Client c = d.connect();
  c.submit(1, daemon::Priority::kNormal, "--family=grid --bogus=1");
  auto f = c.read_matching(daemon::FrameType::kError, 1, 10000);
  ASSERT_TRUE(f.has_value());
  const auto st = daemon::decode_status(f->payload);
  EXPECT_EQ(st.code, daemon::StatusCode::kBadJobSpec);
  EXPECT_NE(st.detail.find("bogus"), std::string::npos);

  // A node count outside [1, 2^31 - 1] is rejected, not truncated.
  c.submit(2, daemon::Priority::kNormal, "--family=grid --n=4294967360");
  f = c.read_matching(daemon::FrameType::kError, 2, 10000);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(daemon::decode_status(f->payload).code,
            daemon::StatusCode::kBadJobSpec);

  // A generated instance over ingest's node cap (2^20) is rejected before
  // admission, so the daemon never starts generating it.
  c.submit(3, daemon::Priority::kNormal, "--family=grid --n=1048577");
  f = c.read_matching(daemon::FrameType::kError, 3, 10000);
  ASSERT_TRUE(f.has_value());
  const auto cap = daemon::decode_status(f->payload);
  EXPECT_EQ(cap.code, daemon::StatusCode::kBadJobSpec);
  EXPECT_NE(cap.detail.find("node cap"), std::string::npos) << cap.detail;

  // --graph= must name a regular file under the corpus root: a readable
  // graph outside it, a FIFO under it (whose open would block a worker)
  // and a directory under it are all rejected before admission.
  const std::string outside = d.dir.path() + "/outside.psg";
  serve::JobSpec grid;
  io::save_graph(outside, serve::acquire_instance(grid).graph);
  const std::string fifo = corpus.path() + "/pipe.psg";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string dir = corpus.path() + "/grid";
  fs::create_directories(dir);
  std::uint64_t id = 4;
  for (const std::string& path : {outside, fifo, dir}) {
    c.submit(id, daemon::Priority::kNormal, "--graph=" + path);
    f = c.read_matching(daemon::FrameType::kError, id, 10000);
    ASSERT_TRUE(f.has_value()) << path;
    const auto st_path = daemon::decode_status(f->payload);
    EXPECT_EQ(st_path.code, daemon::StatusCode::kBadJobSpec) << path;
    EXPECT_NE(st_path.detail.find("corpus root"), std::string::npos)
        << st_path.detail;
    ++id;
  }

  c.submit(id, daemon::Priority::kNormal, kSpecB);
  const auto rows = collect_responses(c, 1);
  EXPECT_EQ(rows.count(id), 1u);
  EXPECT_EQ(d.server->metrics().counter("daemon/submitted"), 1);
}

// ------------------------------------------------------ disconnects ----

// Admission is a promise of work, not of delivery: a client that leaves
// with k jobs queued still gets them executed, and each of the k
// responses is counted as orphaned.
TEST(DaemonServer, DisconnectedClientsResponsesAreCountedOrphaned) {
  constexpr long long kJobs = 3;
  TestDaemon d;
  {
    daemon::Client c = d.connect();
    ASSERT_TRUE(c.pause(100));
    for (std::uint64_t id = 0; id < kJobs; ++id) {
      c.submit(id, daemon::Priority::kNormal, kSpecB);
    }
    ASSERT_TRUE(c.ping(101));  // the session handled every submit first
    EXPECT_EQ(d.server->dispatcher().queue_depth(),
              static_cast<std::size_t>(kJobs));
    c.close();
  }
  d.server->dispatcher().resume();
  d.server->dispatcher().wait_idle();
  EXPECT_EQ(d.server->metrics().counter("daemon/completed"), kJobs);
  EXPECT_EQ(d.server->metrics().counter("daemon/orphaned_responses"), kJobs);
}

// Finished sessions are reaped while the daemon runs, not only at stop():
// connect/ping/close cycles leave the process's descriptor count where
// it started.
TEST(DaemonServer, ClosedSessionsReleaseTheirDescriptors) {
  const auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"),
                         fs::directory_iterator{});
  };
  TestDaemon d;
  const auto before = open_fds();
  for (std::uint64_t i = 0; i < 300; ++i) {
    daemon::Client c = d.connect();
    ASSERT_TRUE(c.ping(i));
    c.close();
  }
  auto after = open_fds();
  for (int tries = 0; tries < 200 && after > before; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    after = open_fds();
  }
  EXPECT_LE(after, before);
}

// ------------------------------------------------------ deadlines, drain ----

TEST(DaemonServer, ExpiredDeadlineYieldsDeadlineStatus) {
  TestDaemon d;
  daemon::Client c = d.connect();
  c.submit(1, daemon::Priority::kNormal,
           "--family=grid --n=25 --seed=1 --deadline-ms=0");
  const auto rows = collect_responses(c, 1);
  ASSERT_EQ(rows.count(1), 1u);
  EXPECT_EQ(rows.at(1).status, "deadline");
  const auto metrics = c.metrics(2);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(counter_in_json(*metrics, "daemon/deadline_missed"), 1);
}

TEST(DaemonServer, DrainingDispatcherRejectsNewSubmissions) {
  TestDaemon d;
  d.server->dispatcher().drain();
  daemon::Client c = d.connect();
  c.submit(1, daemon::Priority::kNormal, kSpecA);
  auto f = c.read_matching(daemon::FrameType::kReject, 1, 10000);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(daemon::decode_status(f->payload).code,
            daemon::StatusCode::kDraining);
}

TEST(DaemonServer, GracefulDrainDeliversEverythingThenSummarizes) {
  TestDaemon d;
  daemon::Client c = d.connect();
  for (std::uint64_t id = 0; id < 4; ++id) {
    c.submit(id, daemon::Priority::kNormal, id % 2 ? kSpecB : kSpecA);
  }
  const auto summary = c.drain(99);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(counter_in_json(*summary, "completed"), 4);
  EXPECT_EQ(counter_in_json(*summary, "inflight_flights"), 0);
  // Every response was delivered before the kDrained frame (they are
  // waiting in the client's stash now).
  EXPECT_EQ(collect_responses(c, 4).size(), 4u);
  d.server->stop();
  EXPECT_FALSE(fs::exists(d.opts.socket_path));
}

TEST(DaemonServer, DrainWritesMetricsAndTraceDumps) {
  ScratchDir dir("dumps");
  daemon::ServerOptions opts;
  opts.socket_path = dir.path() + "/d.sock";
  opts.metrics_out = dir.path() + "/metrics.json";
  opts.trace_out = dir.path() + "/trace.json";
  opts.cache_bytes = 1u << 22;
  daemon::Server server(opts);
  server.start();
  {
    daemon::Client c;
    ASSERT_TRUE(c.connect(opts.socket_path));
    c.submit(1, daemon::Priority::kNormal, kSpecA);
    ASSERT_EQ(collect_responses(c, 1).size(), 1u);
    ASSERT_TRUE(c.drain(2).has_value());
  }
  server.stop();
  ASSERT_TRUE(fs::exists(opts.metrics_out));
  ASSERT_TRUE(fs::exists(opts.trace_out));
  std::ifstream mf(opts.metrics_out);
  std::string metrics((std::istreambuf_iterator<char>(mf)),
                      std::istreambuf_iterator<char>());
  EXPECT_GT(counter_in_json(metrics, "daemon/completed"), 0);
  std::ifstream tf(opts.trace_out);
  std::string trace((std::istreambuf_iterator<char>(tf)),
                    std::istreambuf_iterator<char>());
  // The per-job spans show up as Chrome trace slices.
  EXPECT_NE(trace.find("daemon/job"), std::string::npos);
}

// --------------------------------------------------------- boot warm-up ----

// plansepd --warm-from-corpus: a daemon booted over a populated corpus +
// cache disk tier has the task-graph sub-artifacts resident in memory
// *before any submit*, and the session's first job is served without a
// single compute.
TEST(DaemonServer, WarmFromCorpusServesFirstJobWarm) {
  ScratchDir dir("warm");
  const std::string corpus = dir.path() + "/corpus";
  const std::string cache_dir = dir.path() + "/cache";
  const serve::JobSpec spec = *serve::parse_job_line(kSpecA, 0);

  // Populate: one cold pipeline job writes the instance into the corpus
  // and its spanning-tree/separator/DFS sub-artifacts into the disk tier.
  {
    serve::ResultCache cold(serve::ResultCache::Options{1u << 22, cache_dir});
    serve::BatchOptions popts;
    popts.corpus_dir = corpus;
    const serve::JobResult r = serve::run_single_job(spec, 1, popts, cold);
    ASSERT_EQ(r.status, "ok") << r.error;
    ASSERT_GT(r.taskgraph.tasks_run, 0);
  }

  daemon::ServerOptions opts;
  ScratchDir sock("warmsock");
  opts.socket_path = sock.path() + "/d.sock";
  opts.cache_bytes = 1u << 22;
  opts.cache_shards = 4;
  opts.cache_disk_dir = cache_dir;
  opts.dispatcher.batch.corpus_dir = corpus;
  opts.warm_from_corpus = true;
  daemon::Server server(opts);
  server.start();

  // Warm hits before any submit: the sub-artifacts are already resident.
  const serve::CacheCounters boot = server.cache().counters();
  EXPECT_GE(boot.warmed, 3);  // spantree@v1, separator@v1, dfs@v1
  EXPECT_GE(server.cache().entries(), 3u);
  EXPECT_EQ(boot.hits, 0);
  EXPECT_EQ(boot.misses, 0);
  EXPECT_EQ(server.metrics().counter("daemon/warm_instances"), 1);
  EXPECT_GE(server.metrics().counter("daemon/warm_artifacts"), 3);

  {
    daemon::Client c;
    ASSERT_TRUE(c.connect(opts.socket_path));
    c.submit(1, daemon::Priority::kNormal, kSpecA);
    const auto rows = collect_responses(c, 1);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows.at(1).status, "ok");
    ASSERT_TRUE(c.drain(2).has_value());
  }
  // The whole session ran off the warmed entries: in-memory hits only,
  // never a compute, never even a disk read.
  const serve::CacheCounters after = server.cache().counters();
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.disk_hits, 0);
  EXPECT_GT(after.hits, 0);
  server.stop();
}

// ------------------------------------------------------------ chaos soak ----

// 10k+ mixed jobs through the dispatcher under seeded worker crash/retry.
// The oracle is a fault-free serial run of the identical submission
// stream: every delivered row must be byte-identical, nothing may leak a
// single-flight entry, and the chaos coin must actually have fired.
TEST(DaemonSoak, TenThousandMixedJobsUnderChaosMatchFaultFreeSerial) {
  constexpr int kJobs = 10000;

  // A small spec pool (mostly-warm traffic) with a faulty and a deadline
  // job mixed in; (spec, id) fully determines each row.
  std::vector<serve::JobSpec> pool;
  pool.push_back(*serve::parse_job_line(kSpecA, 0));
  pool.push_back(*serve::parse_job_line(kSpecB, 0));
  pool.push_back(*serve::parse_job_line(kSpecC, 0));
  pool.push_back(*serve::parse_job_line("--family=wheel --n=18 --seed=4", 0));
  pool.push_back(*serve::parse_job_line(
      "--family=triangulation --n=24 --seed=5 --algo=separator", 0));
  pool.push_back(*serve::parse_job_line(
      "--family=grid --n=16 --seed=6 --drop=0.02 --fault-seed=9", 0));
  pool.push_back(*serve::parse_job_line(
      "--family=grid --n=16 --seed=7 --deadline-ms=0", 0));

  const auto run = [&](int workers, double chaos_prob,
                       daemon::DaemonMetrics& metrics) {
    std::map<std::uint64_t, std::string> rows;
    std::mutex mu;
    serve::ShardedResultCache cache({1u << 22, 4, ""});
    daemon::DispatcherOptions opts;
    opts.workers = workers;
    opts.max_queue = kJobs + 1;  // admit the whole soak up front
    opts.per_client_quota = kJobs + 1;
    opts.chaos_seed = 42;
    opts.chaos_crash_prob = chaos_prob;
    daemon::Dispatcher disp(opts, cache, metrics);
    for (std::uint64_t id = 0; id < kJobs; ++id) {
      const auto adm = disp.submit(
          {1, id, daemon::Priority::kNormal, pool[id % pool.size()]},
          [&](const daemon::JobDone& done) {
            std::lock_guard<std::mutex> lk(mu);
            rows.emplace(done.id,
                         std::get<serve::JobResult>(done.outcome).row);
          });
      EXPECT_EQ(adm, daemon::Admission::kAdmitted) << "id " << id;
    }
    disp.drain();
    EXPECT_EQ(cache.inflight_flights(), 0u) << "leaked single-flight entry";
    return rows;
  };

  daemon::DaemonMetrics ref_metrics;
  const auto reference = run(1, 0.0, ref_metrics);
  daemon::DaemonMetrics chaos_metrics;
  const auto chaotic = run(4, 0.05, chaos_metrics);

  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kJobs));
  ASSERT_EQ(chaotic.size(), static_cast<std::size_t>(kJobs));
  int mismatches = 0;
  for (const auto& [id, row] : reference) {
    if (chaotic.at(id) != row && ++mismatches <= 3) {
      ADD_FAILURE() << "row mismatch at id " << id << "\n  ref: " << row
                    << "\n  got: " << chaotic.at(id);
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(chaos_metrics.counter("daemon/chaos_crashes"), 0)
      << "the chaos coin never fired — the soak tested nothing";
  EXPECT_EQ(chaos_metrics.counter("daemon/completed"), kJobs);
  EXPECT_EQ(ref_metrics.counter("daemon/chaos_crashes"), 0);
}

}  // namespace
}  // namespace plansep
