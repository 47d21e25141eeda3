#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/fingerprint.hpp"
#include "daemon/protocol.hpp"
#include "io/binary.hpp"
#include "obs/json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace plansep;

namespace {

constexpr int kFrameTimeoutMs = 120000;
// Server::stop waits out its listener's poll interval (about 0.1 s), far
// longer than a start, so setup_daemon stops its daemons this many at a
// time, in parallel.
constexpr std::size_t kStopBatch = 25;
constexpr std::chrono::milliseconds kStartGap{5};

void stop_all(std::vector<std::unique_ptr<Live>>& lives) {
  std::vector<std::thread> stoppers;
  for (auto& l : lives) stoppers.emplace_back([&l] { l->stop(); });
  for (std::thread& s : stoppers) s.join();
  lives.clear();
}

// Server construction until the first kPing answers, in seconds.
double start_daemon(const daemon::ServerOptions& opts, Live& live) {
  const auto t0 = Clock::now();
  live.server = std::make_unique<daemon::Server>(opts);
  live.server->start();
  if (!live.client.connect(opts.socket_path, 10000) ||
      !live.client.ping(1u << 30, 10000)) {
    throw std::runtime_error("daemon did not answer the first ping");
  }
  return ms_since(t0) / 1000.0;
}

bool is_outcome(std::uint8_t t) {
  using daemon::FrameType;
  return t == static_cast<std::uint8_t>(FrameType::kResponse) ||
         t == static_cast<std::uint8_t>(FrameType::kReject) ||
         t == static_cast<std::uint8_t>(FrameType::kError) ||
         t == static_cast<std::uint8_t>(FrameType::kQueryResp) ||
         t == static_cast<std::uint8_t>(FrameType::kIngestResp);
}

}  // namespace

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have[1] = true;
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v.c_str());
      have[2] = true;
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
      have[3] = true;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  if (!known_workload(a.workload) || a.seconds < 1 ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

daemon::ServerOptions server_options(const std::string& socket,
                                     const std::string& corpus) {
  daemon::ServerOptions o;
  o.socket_path = socket;
  o.dispatcher.workers = kConfig.workers;
  o.dispatcher.max_queue = kConfig.max_queue;
  o.dispatcher.per_client_quota = kConfig.quota;
  o.dispatcher.engine_capacity = kConfig.engine_capacity;
  o.dispatcher.batch.corpus_dir = corpus;
  o.cache_bytes = kConfig.cache_bytes;
  o.cache_shards = kConfig.cache_shards;
  return o;
}

void Live::stop() {
  client.close();
  if (server) server->stop();
  server.reset();
}

double setup_daemon(const std::string& dir, const std::string& corpus,
                    Live& live, int starts) {
  const auto options = [&](int i) {
    return server_options(dir + "/d" + std::to_string(i) + ".sock", corpus);
  };
  std::vector<double> t;
  std::vector<std::unique_ptr<Live>> up;
  live.stop();
  for (int i = 0; i + 1 < starts; ++i) {
    if (up.size() == kStopBatch) stop_all(up);
    up.push_back(std::make_unique<Live>());
    // Each start begins from an idle process, as a real daemon start
    // does; back to back, starts ride on whatever the host does then.
    std::this_thread::sleep_for(kStartGap);
    t.push_back(start_daemon(options(i), *up.back()));
  }
  stop_all(up);
  std::this_thread::sleep_for(kStartGap);
  t.push_back(start_daemon(options(starts - 1), live));
  return quantile(t, 0.5);
}

std::vector<std::uint8_t> request_frame(Kind kind, const Request& r,
                                        std::size_t* input_bytes) {
  using daemon::FrameType;
  switch (kind) {
    case Kind::kJob:
      *input_bytes = r.line.size();
      return daemon::make_frame(
          FrameType::kSubmit, r.id,
          daemon::encode_submit({daemon::Priority::kNormal, r.line}));
    case Kind::kQuery: {
      daemon::QueryRequestPayload q;
      q.spec_line = r.line;
      q.leaf_size = r.leaf_size;
      q.pairs = query_pairs(r);
      q.dead_edges = r.dead_edges;
      *input_bytes = q.pairs.size() * 8;
      return daemon::make_frame(FrameType::kQueryReq, r.id,
                                daemon::encode_query_request(q));
    }
    case Kind::kIngest: {
      daemon::IngestRequestPayload p;
      p.triangulate = r.triangulate ? 1 : 0;
      p.max_nodes = r.max_nodes;
      p.text = ingest_text(r);
      *input_bytes = p.text.size();
      return daemon::make_frame(FrameType::kIngestReq, r.id,
                                daemon::encode_ingest_request(p));
    }
  }
  return {};
}

LoopResult closed_loop(daemon::Client& c, Kind kind,
                       const std::vector<Request>& reqs, int window,
                       int block_size, double budget_s) {
  LoopResult res;
  res.out.resize(reqs.size());
  res.input_bytes.resize(reqs.size());
  std::unordered_map<std::uint64_t, std::size_t> pos;
  std::vector<Clock::time_point> sent_at(reqs.size());
  const auto t0 = Clock::now();
  std::size_t next = 0;
  int outstanding = 0;
  for (;;) {
    while (outstanding < window && next < reqs.size()) {
      const bool block_start =
          next > 0 && next % static_cast<std::size_t>(block_size) == 0;
      // A block starts once the previous one has drained, so head-of-line
      // waits never cross blocks and every block runs alike.
      if (block_start && outstanding > 0) break;
      if (block_start && budget_s >= 0 && ms_since(t0) >= budget_s * 1000.0) {
        break;
      }
      pos[reqs[next].id] = next;
      const std::vector<std::uint8_t> frame =
          request_frame(kind, reqs[next], &res.input_bytes[next]);
      sent_at[next] = Clock::now();  // latency excludes materializing inputs
      c.send_raw(frame);
      ++next;
      ++outstanding;
    }
    if (outstanding == 0) break;
    auto f = c.next_frame(kFrameTimeoutMs);
    if (!f) {
      res.timed_out = true;
      break;
    }
    if (!is_outcome(f->type)) continue;
    const auto it = pos.find(f->id);
    if (it == pos.end() || res.out[it->second].done) continue;
    Outcome& o = res.out[it->second];
    o.latency_ms = ms_since(sent_at[it->second]);
    o.done = true;
    o.type = f->type;
    o.payload = std::move(f->payload);
    --outstanding;
  }
  res.sent = next;
  res.wall_s = ms_since(t0) / 1000.0;
  for (std::size_t i = 0; i < next; ++i) {
    if (!res.out[i].done) res.out[i].latency_ms = ms_since(sent_at[i]);
    const double done_s =
        std::chrono::duration<double>(sent_at[i] - t0).count() +
        res.out[i].latency_ms / 1000.0;
    const std::size_t b = i / static_cast<std::size_t>(block_size);
    if (res.block_done_s.size() <= b) res.block_done_s.resize(b + 1, 0.0);
    res.block_done_s[b] = std::max(res.block_done_s[b], done_s);
  }
  return res;
}

std::uint32_t crc_of(const std::vector<std::uint8_t>& buf) {
  return io::crc32(buf.data(), buf.size());
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) {
    buf.push_back(static_cast<std::uint8_t>(v >> s));
  }
}

std::string answers_digest(const std::string& status,
                           const std::vector<std::int64_t>& distances) {
  std::vector<std::uint8_t> buf;
  for (const std::int64_t x : distances) {
    put_u64(buf, static_cast<std::uint64_t>(x));
  }
  return status + " " + std::to_string(distances.size()) + " " +
         std::to_string(crc_of(buf));
}

std::string ingest_verdict(const std::string& status, int code,
                           std::uint64_t fingerprint, long long nodes,
                           long long edges) {
  return status + " code=" + std::to_string(code) +
         " fp=" + core::fingerprint_hex(fingerprint) +
         " n=" + std::to_string(nodes) + " m=" + std::to_string(edges);
}

std::string output_of_frame(Kind kind, const Outcome& o) {
  if (!o.done) return "<timeout>";
  using daemon::FrameType;
  const auto is = [&](FrameType t) { return o.type == static_cast<std::uint8_t>(t); };
  if (is(FrameType::kError)) return "bad_spec";
  if (kind == Kind::kJob && is(FrameType::kResponse)) {
    return daemon::decode_response(o.payload).row;
  }
  if (kind == Kind::kQuery && is(FrameType::kQueryResp)) {
    const auto r = daemon::decode_query_response(o.payload);
    return answers_digest(r.status, r.distances);
  }
  if (kind == Kind::kIngest && is(FrameType::kIngestResp)) {
    const auto r = daemon::decode_ingest_response(o.payload);
    return ingest_verdict(r.status, r.error_code, r.fingerprint, r.nodes,
                          r.edges);
  }
  return "<unexpected frame>";
}

std::uint32_t output_crc(const std::vector<std::uint64_t>& ids,
                         const std::vector<std::string>& outputs) {
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    put_u64(buf, ids[i]);
    buf.insert(buf.end(), outputs[i].begin(), outputs[i].end());
  }
  return crc_of(buf);
}

std::string row_body(const std::string& row) {
  const auto comma = row.find(',');
  return comma == std::string::npos ? row : row.substr(comma + 1);
}

void print_counters(const Counters& det) {
  std::printf("\n-- deterministic counters (exact; identical across runs of a seed)\n");
  for (const auto& [name, v] : det) {
    std::printf("  %-44s %lld\n", name.c_str(), v);
  }
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    char buf[64];
    // Every digit, never rounded.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    w.key(m.name).begin_object();
    w.key("value").raw(buf);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
