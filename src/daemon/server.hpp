#pragma once

/// \file
/// plansepd's server core: UNIX-socket listener, per-session protocol
/// loops, drain, and metrics dumps.

// The serving daemon's server core.
//
// One listener thread accepts connections on a UNIX stream socket; each
// connection gets a session thread running the protocol loop
// (daemon/protocol.hpp) over an io::FrameDecoder. Submissions flow into
// the Dispatcher; everything the daemon writes back falls into two
// classes with different ordering rules:
//
//   * immediate frames — rejects, errors, pongs, metrics replies — are
//     written by the session thread the moment they are decided;
//   * responses are written by the dispatcher's completion callback,
//     which fires in the client's admission order (dispatcher.hpp), so
//     each client reads its responses in that order no matter which
//     worker finished first.
//
// A client that disconnects mid-stream orphans its in-flight jobs: they
// still execute (admission is a promise of work, not of delivery) and
// their responses are dropped and counted (daemon/orphaned_responses). A
// malformed byte stream poisons the session's decoder; the daemon sends
// one kMalformedFrame error and closes that connection — other sessions
// are untouched.
//
// kDrain triggers the graceful shutdown: admissions stop (kDraining
// rejects), the dispatcher finishes every admitted job, the metrics JSON
// and Perfetto trace are written, the requester gets kDrained with a
// summary document, and the daemon exits its wait() loop.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/dispatcher.hpp"
#include "daemon/metrics.hpp"
#include "serve/cache.hpp"

namespace plansep::daemon {

/// Server configuration.
struct ServerOptions {
  std::string socket_path;     ///< UNIX socket path (unlinked/re-bound)
  DispatcherOptions dispatcher;  ///< admission + execution knobs
  std::size_t cache_bytes = 64u << 20;  ///< in-memory cache budget
  int cache_shards = 8;        ///< in-memory cache shard count
  std::string cache_disk_dir;  ///< disk tier directory ("" disables)
  std::string metrics_out;     ///< metrics JSON path written at drain ("")
  std::string trace_out;       ///< Perfetto trace path written at drain ("")
  /// Boot warm-up: before accepting connections, preload every warmable
  /// task-graph artifact of every corpus instance from the cache disk
  /// tier into the sharded cache (taskgraph::warm_from_corpus), so the
  /// first job of a session is warm. Requires the dispatcher's corpus dir
  /// and a cache_disk_dir; counted as daemon/warm_instances and
  /// daemon/warm_artifacts.
  bool warm_from_corpus = false;
};

/// The daemon: listener + sessions + dispatcher + sharded cache.
class Server {
 public:
  /// Builds the cache, dispatcher and metrics; no I/O yet.
  explicit Server(ServerOptions opts);
  /// Stops (if still running) and joins every thread.
  ~Server();
  Server(const Server&) = delete;             ///< non-copyable
  Server& operator=(const Server&) = delete;  ///< non-copyable

  /// Binds the socket and starts the listener. Throws std::runtime_error
  /// when the socket can't be bound.
  void start();
  /// Polls the stop request every 50 ms until a drain, request_stop() or
  /// stop() sets it, then performs the teardown (stop()).
  void wait();
  /// Requests shutdown from outside the protocol: one lock-free atomic
  /// store, so it is async-signal-safe and a signal handler may call it;
  /// wait() performs the actual teardown. Safe to call repeatedly.
  void request_stop() { stop_requested_.store(true); }
  /// Drains the dispatcher, writes the metrics/trace dumps, closes every
  /// session and joins all threads. Idempotent: only the first call
  /// tears down.
  void stop();

  /// The daemon's metrics facade (shared with the dispatcher).
  DaemonMetrics& metrics() { return metrics_; }
  /// The sharded serving cache.
  serve::ShardedResultCache& cache() { return *cache_; }
  /// The dispatcher (tests poke pause/resume directly).
  Dispatcher& dispatcher() { return *dispatcher_; }
  /// Current metrics snapshot (cache counters folded in).
  std::string metrics_json() const { return metrics_.snapshot_json(*cache_); }
  /// The configured options.
  const ServerOptions& options() const { return opts_; }

 private:
  struct Session;

  void listener_loop();
  // Joins, closes and forgets every session whose loop has ended, so the
  // daemon holds one thread and one fd per live connection only.
  void reap_sessions();
  void session_loop(const std::shared_ptr<Session>& s);
  void handle_frame(const std::shared_ptr<Session>& s, const io::Frame& f);
  // Decodes a submit/query/ingest frame, or answers its typed error and
  // returns nullopt.
  std::optional<Submission> decode_submission(Session& s, const io::Frame& f);
  // Submits to the dispatcher; answers any rejection at once.
  void admit(const std::shared_ptr<Session>& s, Submission sub);
  // Delivers a finished job's response, or counts it as orphaned.
  void deliver(const std::weak_ptr<Session>& weak, const JobDone& done);
  void handle_drain(const std::shared_ptr<Session>& s, std::uint64_t id);
  void write_dumps();
  std::string drain_summary_json() const;

  ServerOptions opts_;
  DaemonMetrics metrics_;
  std::unique_ptr<serve::ShardedResultCache> cache_;
  std::unique_ptr<Dispatcher> dispatcher_;

  int listen_fd_ = -1;
  std::thread listener_;

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t next_client_ = 1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};
  static_assert(std::atomic<bool>::is_always_lock_free,
                "request_stop must be async-signal-safe");
  std::atomic<bool> accepting_{false};
};

}  // namespace plansep::daemon
