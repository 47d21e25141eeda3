#include "daemon/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "ingest/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "taskgraph/pipeline.hpp"

namespace plansep::daemon {

namespace {

// Writes all of buf to fd, MSG_NOSIGNAL so a dead peer surfaces as EPIPE
// instead of killing the process. Returns false on any write failure.
bool send_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Parses a submit/query frame's job-file line. A generated instance is
// held to ingest's node cap before admission, so no wire request makes
// the daemon generate a graph larger than it would admit as an edge list.
serve::JobSpec parse_spec(const std::string& line) {
  auto parsed = serve::parse_job_line(line, 0);
  if (!parsed) throw std::runtime_error("empty job spec");
  const std::int64_t cap = ingest::IngestOptions{}.max_nodes;
  if (parsed->graph_path.empty() && parsed->n > cap) {
    throw std::runtime_error("--n=" + std::to_string(parsed->n) +
                             " exceeds the node cap " + std::to_string(cap));
  }
  return std::move(*parsed);
}

// The response frame of a finished job, one frame type per request class.
std::vector<std::uint8_t> response_frame(const JobDone& done) {
  if (const auto* r = std::get_if<serve::JobResult>(&done.outcome)) {
    return make_frame(FrameType::kResponse, done.id,
                      encode_response({r->status, r->attempts, r->row}));
  }
  if (const auto* q = std::get_if<query::QueryOutcome>(&done.outcome)) {
    return make_frame(
        FrameType::kQueryResp, done.id,
        encode_query_response(
            {q->status, q->error, q->distances,
             static_cast<std::uint8_t>(q->engine_cache_hit ? 1 : 0)}));
  }
  const IngestOutcome& out = std::get<IngestOutcome>(done.outcome);
  IngestResponsePayload resp;
  resp.status = out.status;
  resp.error_code = out.error_code;
  resp.error = out.error;
  resp.fingerprint = out.fingerprint;
  resp.corpus_path = out.corpus_path;
  resp.nodes = out.nodes;
  resp.edges = out.edges;
  resp.witness.assign(out.witness.begin(), out.witness.end());
  return make_frame(FrameType::kIngestResp, done.id,
                    encode_ingest_response(resp));
}

}  // namespace

// One connected client. The write mutex guards the fd's write side and
// the closed flag; the session thread owns the read side exclusively.
struct Server::Session {
  std::uint64_t client = 0;  ///< dispatcher client identity
  int fd = -1;

  std::mutex write_mu;
  bool closed = false;  // write side gone (disconnect or server stop)

  std::atomic<bool> ended{false};  // session_loop returned; thread joinable
  std::thread thread;

  /// Writes one frame. False if the client is closed or the write broke.
  bool send_now(const std::vector<std::uint8_t>& frame) {
    std::lock_guard<std::mutex> lk(write_mu);
    if (closed) return false;
    if (!send_all(fd, frame)) {
      closed = true;
      return false;
    }
    return true;
  }

  /// Severs the connection (both directions); the session thread's recv
  /// unblocks with EOF.
  void sever() {
    std::lock_guard<std::mutex> lk(write_mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    closed = true;
  }

  /// Joins the session thread, then closes the fd under the write lock:
  /// a late delivery sees `closed` and never touches the fd again.
  void release() {
    if (thread.joinable()) thread.join();
    std::lock_guard<std::mutex> lk(write_mu);
    closed = true;
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  cache_ = std::make_unique<serve::ShardedResultCache>(
      serve::ShardedResultCache::Options{opts_.cache_bytes, opts_.cache_shards,
                                         opts_.cache_disk_dir});
  dispatcher_ =
      std::make_unique<Dispatcher>(opts_.dispatcher, *cache_, metrics_);
}

Server::~Server() { stop(); }

void Server::start() {
  if (opts_.warm_from_corpus) {
    // Preload before the socket exists: every connection ever accepted
    // sees the warmed cache, so "warm hits before any submit" holds by
    // construction.
    const taskgraph::WarmReport rep = taskgraph::warm_from_corpus(
        *cache_, opts_.dispatcher.batch.corpus_dir);
    metrics_.add("daemon/warm_instances", rep.instances);
    metrics_.add("daemon/warm_artifacts", rep.artifacts);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + opts_.socket_path);
  }
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(opts_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    throw std::runtime_error("bind " + opts_.socket_path + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));
  }
  accepting_.store(true);
  listener_ = std::thread([this] { listener_loop(); });
}

void Server::listener_loop() {
  while (accepting_.load()) {
    reap_sessions();
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 100);
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto s = std::make_shared<Session>();
    s->fd = fd;
    {
      std::lock_guard<std::mutex> lk(sessions_mu_);
      if (!accepting_.load()) {
        ::close(fd);
        break;
      }
      s->client = next_client_++;
      sessions_.push_back(s);
    }
    metrics_.add("daemon/connections");
    s->thread = std::thread([this, s] { session_loop(s); });
  }
}

void Server::reap_sessions() {
  std::vector<std::shared_ptr<Session>> ended;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    const auto gone = std::partition(
        sessions_.begin(), sessions_.end(),
        [](const std::shared_ptr<Session>& s) { return !s->ended.load(); });
    ended.assign(gone, sessions_.end());
    sessions_.erase(gone, sessions_.end());
  }
  for (const auto& s : ended) s->release();
}

void Server::write_dumps() {
  const obs::MetricsRegistry snap = metrics_.snapshot();
  if (!opts_.metrics_out.empty()) {
    std::ofstream out(opts_.metrics_out);
    out << metrics_.snapshot_json(*cache_) << '\n';
  }
  if (!opts_.trace_out.empty()) {
    obs::write_chrome_trace(snap, opts_.trace_out, /*announce=*/false);
  }
}

std::string Server::drain_summary_json() const {
  const serve::CacheCounters c = cache_->counters();
  obs::JsonWriter w;
  w.begin_object();
  w.key("submitted").value(metrics_.counter("daemon/submitted"));
  w.key("admitted").value(metrics_.counter("daemon/admitted"));
  w.key("completed").value(metrics_.counter("daemon/completed"));
  w.key("rejected_backpressure")
      .value(metrics_.counter("daemon/rejected_backpressure"));
  w.key("rejected_quota").value(metrics_.counter("daemon/rejected_quota"));
  w.key("rejected_draining")
      .value(metrics_.counter("daemon/rejected_draining"));
  w.key("orphaned_responses")
      .value(metrics_.counter("daemon/orphaned_responses"));
  w.key("cache_served_warm").value(c.served_without_compute());
  w.key("inflight_flights").value(static_cast<long long>(
      cache_->inflight_flights()));
  w.end_object();
  return w.str();
}

void Server::session_loop(const std::shared_ptr<Session>& s) {
  io::FrameDecoder decoder;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(s->fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect (or sever() during stop)
    try {
      decoder.feed(buf, static_cast<std::size_t>(n));
      while (auto f = decoder.next()) handle_frame(s, *f);
    } catch (const io::FormatError& e) {
      // The byte stream lost sync; one typed error, then the connection
      // dies (the decoder is poisoned — nothing after it can be trusted).
      metrics_.add("daemon/malformed_frames");
      s->send_now(make_frame(
          FrameType::kError, 0,
          encode_status({StatusCode::kMalformedFrame, e.what()})));
      break;
    }
  }
  if (decoder.partial_bytes() > 0 && !decoder.poisoned()) {
    metrics_.add("daemon/partial_disconnects");
  }
  s->sever();
  s->ended.store(true);  // the listener reaps the thread and the fd
}

void Server::handle_frame(const std::shared_ptr<Session>& s,
                          const io::Frame& f) {
  switch (static_cast<FrameType>(f.type)) {
    case FrameType::kSubmit:
    case FrameType::kQueryReq:
    case FrameType::kIngestReq:
      if (auto sub = decode_submission(*s, f)) admit(s, std::move(*sub));
      return;
    case FrameType::kPing:
      s->send_now(make_frame(FrameType::kPong, f.id));
      return;
    case FrameType::kPause:
      dispatcher_->pause();
      s->send_now(make_frame(FrameType::kPong, f.id));
      return;
    case FrameType::kResume:
      dispatcher_->resume();
      s->send_now(make_frame(FrameType::kPong, f.id));
      return;
    case FrameType::kMetricsQuery:
      s->send_now(make_frame(FrameType::kMetricsReply, f.id,
                             encode_text({metrics_.snapshot_json(*cache_)})));
      return;
    case FrameType::kDrain:
      handle_drain(s, f.id);
      return;
    default:
      metrics_.add("daemon/malformed_frames");
      s->send_now(make_frame(
          FrameType::kError, f.id,
          encode_status({StatusCode::kMalformedFrame,
                         "unexpected frame type " +
                             std::to_string(static_cast<int>(f.type))})));
      return;
  }
}

std::optional<Submission> Server::decode_submission(Session& s,
                                                    const io::Frame& f) {
  Submission sub;
  sub.client = s.client;
  sub.id = f.id;
  try {
    if (f.type == static_cast<std::uint8_t>(FrameType::kSubmit)) {
      SubmitPayload req = decode_submit(f.payload);
      sub.priority = req.priority;
      sub.job = parse_spec(req.spec_line);
    } else if (f.type == static_cast<std::uint8_t>(FrameType::kQueryReq)) {
      QueryRequestPayload req = decode_query_request(f.payload);
      auto job = std::make_shared<query::QueryJob>();
      job->instance = parse_spec(req.spec_line);
      job->leaf_size = req.leaf_size;
      job->pairs.assign(req.pairs.begin(), req.pairs.end());
      job->dead_edges.assign(req.dead_edges.begin(), req.dead_edges.end());
      sub.priority = req.priority;
      sub.job = std::move(job);
    } else {
      IngestRequestPayload req = decode_ingest_request(f.payload);
      auto job = std::make_shared<IngestJob>();
      job->options.format = static_cast<ingest::TextFormat>(req.format);
      job->options.drop_self_loops = req.drop_self_loops != 0;
      job->options.drop_duplicate_edges = req.drop_duplicates != 0;
      job->options.triangulate = req.triangulate != 0;
      if (!req.family.empty()) job->options.family = req.family;
      // Client caps may only tighten the server defaults, never widen them.
      ingest::IngestOptions& o = job->options;
      if (req.max_nodes > 0) o.max_nodes = std::min(o.max_nodes, req.max_nodes);
      if (req.max_edges > 0) o.max_edges = std::min(o.max_edges, req.max_edges);
      job->text = std::move(req.text);
      sub.priority = req.priority;
      sub.job = std::move(job);
    }
  } catch (const io::FormatError& e) {
    // The frame itself was sound (CRC passed), so the stream is still in
    // sync — reject the request, keep the session.
    metrics_.add("daemon/malformed_frames");
    s.send_now(make_frame(
        FrameType::kError, f.id,
        encode_status({StatusCode::kMalformedFrame, e.what()})));
    return std::nullopt;
  } catch (const std::exception& e) {
    s.send_now(make_frame(FrameType::kError, f.id,
                          encode_status({StatusCode::kBadJobSpec, e.what()})));
    return std::nullopt;
  }
  return sub;
}

void Server::admit(const std::shared_ptr<Session>& s, Submission sub) {
  const std::uint64_t id = sub.id;
  std::weak_ptr<Session> weak = s;
  const Admission adm = dispatcher_->submit(
      std::move(sub),
      [this, weak](const JobDone& done) { deliver(weak, done); });
  switch (adm) {
    case Admission::kAdmitted:
      return;  // the dispatcher delivers the response in admission order
    case Admission::kQueueFull:
      s->send_now(make_frame(
          FrameType::kReject, id,
          encode_status({StatusCode::kQueueFull, "admission queue full"})));
      return;
    case Admission::kQuotaExceeded:
      s->send_now(make_frame(
          FrameType::kReject, id,
          encode_status(
              {StatusCode::kQuotaExceeded, "per-client quota exhausted"})));
      return;
    case Admission::kDraining:
      s->send_now(make_frame(
          FrameType::kReject, id,
          encode_status({StatusCode::kDraining, "daemon is draining"})));
      return;
  }
}

void Server::deliver(const std::weak_ptr<Session>& weak, const JobDone& done) {
  const auto session = weak.lock();
  if (session == nullptr || !session->send_now(response_frame(done))) {
    metrics_.add("daemon/orphaned_responses");
  }
}

void Server::handle_drain(const std::shared_ptr<Session>& s,
                          std::uint64_t id) {
  metrics_.add("daemon/drains");
  dispatcher_->drain();  // admissions now reject kDraining; queue flushes
  write_dumps();
  s->send_now(make_frame(FrameType::kDrained, id,
                         encode_text({drain_summary_json()})));
  request_stop();
}

void Server::wait() {
  std::unique_lock<std::mutex> lk(state_mu_);
  state_cv_.wait_for(lk, std::chrono::milliseconds(200),
                     [&] { return stop_requested_ || stopped_; });
  while (!stop_requested_ && !stopped_) {
    state_cv_.wait_for(lk, std::chrono::milliseconds(200));
  }
  lk.unlock();
  stop();
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    stop_requested_ = true;
  }
  state_cv_.notify_all();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  state_cv_.notify_all();

  // Stop accepting, finish every admitted job (deliveries included — the
  // dispatcher's completion callbacks run before drain() returns), then
  // sever and join the sessions.
  accepting_.store(false);
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (dispatcher_ != nullptr) dispatcher_->drain();
  write_dumps();

  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (const auto& s : sessions) s->sever();
  for (const auto& s : sessions) s->release();
  if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
}

}  // namespace plansep::daemon
