#pragma once

// Pieces shared by the end-to-end run (main.cpp) and the traced replay
// (replay.cpp): arguments, the daemon configuration, the in-process
// daemon with its one client, the closed loop and the result output.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The daemon configuration every workload runs under (README.md records
/// it). The reference host has nproc = 4: one client, three workers.
struct DaemonConfig {
  int workers = 3;
  int window = 4;  ///< outstanding requests held by the client
  std::size_t max_queue = 64;
  long long quota = 64;
  std::size_t cache_bytes = std::size_t{256} << 20;
  int cache_shards = 4;
  std::size_t engine_capacity = 4;
};
inline const DaemonConfig kConfig;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
std::optional<Args> parse_args(int argc, char** argv);

double ms_since(Clock::time_point t);

/// A scratch directory under .bench_run/, removed on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

plansep::daemon::ServerOptions server_options(const std::string& socket,
                                              const std::string& corpus);

/// A started daemon plus the benchmark's one client connection.
struct Live {
  std::unique_ptr<plansep::daemon::Server> server;
  plansep::daemon::Client client;
  void stop();
  ~Live() { stop(); }
};

/// Median, over `starts` fresh daemons, of the time from Server
/// construction until the first kPing answers (seconds). The last daemon
/// stays up in `live`.
double setup_daemon(const std::string& dir, const std::string& corpus,
                    Live& live, int starts);

struct Outcome {
  bool done = false;
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  double latency_ms = 0;  ///< submit until the outcome frame arrived
};

struct LoopResult {
  std::vector<Outcome> out;  ///< by position in the request list
  std::vector<std::size_t> input_bytes;  ///< by position, once sent
  std::size_t sent = 0;
  double wall_s = 0;
  /// Per block: seconds from the loop start until its last outcome.
  std::vector<double> block_done_s;
  bool timed_out = false;
};

/// The wire frame of one request (query pairs and ingest texts are
/// materialized here); `input_bytes` gets the size of the request's input
/// (job line, pair batch or edge-list text).
std::vector<std::uint8_t> request_frame(Kind kind, const Request& r,
                                        std::size_t* input_bytes);

/// Closed loop: keeps `window` requests of the current block outstanding;
/// a block starts when the previous one has drained. With budget_s >= 0
/// it stops sending at the first block boundary after the budget (at
/// least one block always runs); otherwise it sends all.
LoopResult closed_loop(plansep::daemon::Client& c, Kind kind,
                       const std::vector<Request>& reqs, int window,
                       int block_size, double budget_s);

std::uint32_t crc_of(const std::vector<std::uint8_t>& buf);
void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v);

/// One comparable string per request outcome, built the same way from a
/// daemon frame and from a direct call: the job row, a digest of the
/// query answers, or the ingest verdict ("bad_spec" for refused lines).
std::string answers_digest(const std::string& status,
                           const std::vector<std::int64_t>& distances);
std::string ingest_verdict(const std::string& status, int code,
                           std::uint64_t fingerprint, long long nodes,
                           long long edges);
std::string output_of_frame(Kind kind, const Outcome& o);

/// CRC over (id, output) of a request prefix — the cross-run and
/// daemon-vs-replay fingerprint printed with the deterministic counters.
std::uint32_t output_crc(const std::vector<std::uint64_t>& ids,
                         const std::vector<std::string>& outputs);

/// A job row without its leading "job" index field.
std::string row_body(const std::string& row);

/// Deterministic counters, printed apart from the wall metrics.
using Counters = std::vector<std::pair<std::string, long long>>;
void print_counters(const Counters& det);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line: the last line of stdout.
void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics);

double peak_rss_mb();

}  // namespace perfbench
