// plansepd — the long-lived serving daemon over a UNIX stream socket.
//
//   plansepd --socket=PATH [--workers=K] [--queue=N] [--quota=N]
//            [--cache-bytes=N] [--cache-shards=N] [--cache-dir=DIR]
//            [--corpus=DIR] [--warm-from-corpus]
//            [--metrics-out=FILE] [--trace-out=FILE]
//            [--chaos-seed=S] [--chaos-crash=P]
//
// Clients speak the length-prefixed frame protocol of daemon/protocol.hpp
// (docs/SERVING.md): submissions carry one plansep_batch job line each,
// responses stream back in per-client admission order, and admission is
// bounded — a full queue or an exhausted per-client quota produces an
// immediate typed reject, never silent queueing. Jobs execute through the
// sharded in-memory result cache in front of the optional --cache-dir
// disk tier, so a restarted daemon serves warm from disk.
//
// --warm-from-corpus preloads every persisted task-graph sub-artifact of
// every corpus instance from the --cache-dir disk tier into the sharded
// cache before the socket opens, so the first job of a session is warm
// (requires --corpus and --cache-dir).
//
// --chaos-crash enables the deterministic chaos harness: a seeded coin
// re-runs jobs as if a worker had crashed mid-job; delivered payloads are
// unaffected (the soak test's oracle).
//
// The daemon runs until a client sends kDrain or it receives
// SIGINT/SIGTERM; both paths finish every admitted job, write the
// --metrics-out / --trace-out dumps, and exit 0.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "daemon/server.hpp"
#include "util/parse.hpp"

namespace {

// Atomic, because a process-directed signal may run the handler on any
// of the daemon's threads.
std::atomic<plansep::daemon::Server*> g_server{nullptr};

void on_signal(int) {
  // Async-signal-safe: lock-free atomic loads and stores only; the store
  // sets the flag Server::wait() polls.
  if (plansep::daemon::Server* s = g_server.load()) s->request_stop();
}

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: plansepd --socket=PATH [--workers=K] [--queue=N] [--quota=N] "
      "[--cache-bytes=N] [--cache-shards=N] [--cache-dir=DIR] "
      "[--corpus=DIR] [--warm-from-corpus] "
      "[--metrics-out=FILE] [--trace-out=FILE] "
      "[--chaos-seed=S] [--chaos-crash=P]\n");
  return 2;
}

int bad_value(const std::string& arg) {
  std::fprintf(stderr, "bad value: %s\n", arg.c_str());
  return usage();
}

// Integer flag value in [lo, hi], stored into *out; false when malformed.
template <typename T>
bool int_in(const std::string& v, long long lo, long long hi, T* out) {
  const std::optional<long long> k = plansep::parse_int_in(v, lo, hi);
  if (k) *out = static_cast<T>(*k);
  return k.has_value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plansep;

  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kLongMax = std::numeric_limits<long long>::max();
  daemon::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    bool ok = true;
    if (flag_value(arg, "socket", &v)) {
      opts.socket_path = v;
    } else if (flag_value(arg, "workers", &v)) {
      ok = int_in(v, 1, kIntMax, &opts.dispatcher.workers);
    } else if (flag_value(arg, "queue", &v)) {
      ok = int_in(v, 1, kLongMax, &opts.dispatcher.max_queue);
    } else if (flag_value(arg, "quota", &v)) {
      ok = int_in(v, 1, kLongMax, &opts.dispatcher.per_client_quota);
    } else if (flag_value(arg, "cache-bytes", &v)) {
      const std::optional<std::uint64_t> bytes = parse_u64(v);
      ok = bytes.has_value();
      if (ok) opts.cache_bytes = static_cast<std::size_t>(*bytes);
    } else if (flag_value(arg, "cache-shards", &v)) {
      ok = int_in(v, 1, kIntMax, &opts.cache_shards);
    } else if (flag_value(arg, "cache-dir", &v)) {
      opts.cache_disk_dir = v;
    } else if (flag_value(arg, "corpus", &v)) {
      opts.dispatcher.batch.corpus_dir = v;
    } else if (arg == "--warm-from-corpus") {
      opts.warm_from_corpus = true;
    } else if (flag_value(arg, "metrics-out", &v)) {
      opts.metrics_out = v;
    } else if (flag_value(arg, "trace-out", &v)) {
      opts.trace_out = v;
    } else if (flag_value(arg, "chaos-seed", &v)) {
      const std::optional<std::uint64_t> seed = parse_u64(v);
      ok = seed.has_value();
      if (ok) opts.dispatcher.chaos_seed = *seed;
    } else if (flag_value(arg, "chaos-crash", &v)) {
      const std::optional<double> p = parse_double(v);
      ok = p && *p >= 0 && *p <= 1;
      if (ok) opts.dispatcher.chaos_crash_prob = *p;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage();
    }
    if (!ok) return bad_value(arg);
  }
  if (opts.socket_path.empty()) return usage();
  if (opts.warm_from_corpus &&
      (opts.dispatcher.batch.corpus_dir.empty() ||
       opts.cache_disk_dir.empty())) {
    std::fprintf(stderr,
                 "--warm-from-corpus requires --corpus and --cache-dir\n");
    return usage();
  }

  daemon::Server server(opts);
  g_server = &server;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plansepd: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "[plansepd] listening on %s (workers=%d queue=%zu)\n",
               opts.socket_path.c_str(), server.dispatcher().options().workers,
               server.dispatcher().options().max_queue);
  std::fflush(stderr);

  server.wait();  // until kDrain or a signal

  const daemon::DaemonMetrics& m = server.metrics();
  std::fprintf(stderr,
               "[plansepd] done: submitted=%lld admitted=%lld completed=%lld "
               "rejected(backpressure=%lld quota=%lld draining=%lld) "
               "orphaned=%lld\n",
               m.counter("daemon/submitted"), m.counter("daemon/admitted"),
               m.counter("daemon/completed"),
               m.counter("daemon/rejected_backpressure"),
               m.counter("daemon/rejected_quota"),
               m.counter("daemon/rejected_draining"),
               m.counter("daemon/orphaned_responses"));
  g_server = nullptr;
  return 0;
}
