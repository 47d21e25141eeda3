// bench_loadgen — E15: deterministic load generator for plansepd.
//
//   bench_loadgen [--socket=PATH] [--seed=N] [--jobs=N] [--threads=K]
//                 [--window=W] [--burst=B] [--queue=Q] [--quick]
//                 [--json=PATH] [--metrics-out=PATH] [--trace-out=PATH]
//                 [--drain]
//
// Doubles as the serving tier's integration test: the schedule is a pure
// function of --seed (mixed cold/warm/duplicate/malformed submissions),
// so two runs with the same seed — at any --threads — must produce the
// same admission decisions, the same per-job responses, and therefore
// the same payload_crc fingerprint (CRC-32 over every outcome frame's
// payload bytes, folded in job-id order). CI runs it twice and diffs the
// fingerprint line.
//
// Two phases, each one JSON row (kind="loadgen"):
//   probe — pause dispatch, burst B submissions at a queue of depth Q,
//           resume. With dispatch frozen, admission is sequential and
//           exactly max(0, B - Q) submissions bounce with kQueueFull:
//           deterministic backpressure, counted and gated.
//   mixed — the seeded schedule, submitted stop-and-wait with a window
//           of W outstanding jobs. Wall-clock latencies give the
//           jobs/sec, p50 and p99 cells the perf gate tracks.
//
// Without --socket an in-process Server is started (dispatcher workers =
// --threads); with --socket the generator drives an external plansepd
// and --threads is informational only. Self-checks (exit 1 on failure):
// at least one backpressure reject, at least one warm cache serve, every
// submission gets exactly one outcome, and — when draining — a clean
// kDrained summary.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/fingerprint.hpp"
#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "io/binary.hpp"

namespace {

using namespace plansep;

// One planned submission: the job line and the planner's intent (the
// intent is informational — the daemon sees only the line).
struct PlannedJob {
  std::string spec;
  enum Kind { kCold, kWarm, kDup, kMalformed } kind = kCold;
};

// The seeded schedule: ~35% cold (fresh spec), ~45% warm (re-issue of an
// earlier cold spec), ~10% duplicate of the most recent well-formed job
// (exercises single-flight under concurrency), ~10% malformed (unknown
// flag → kBadJobSpec). Job 0 is always cold. Pure function of (seed,
// jobs): no RNG state threads through, every decision re-derives from
// core::mix_seed, so the schedule is stable across platforms and runs.
std::vector<PlannedJob> plan_schedule(std::uint64_t seed, int jobs) {
  static const char* kFamilies[] = {"grid", "cycle", "outerplanar",
                                    "triangulation", "wheel"};
  static const char* kAlgos[] = {"separator", "dfs", "pipeline"};
  std::vector<PlannedJob> out;
  std::vector<std::string> cold_specs;
  out.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    const std::uint64_t u =
        core::mix_seed(seed, static_cast<std::uint64_t>(i),
                       0x6c6f616467656eULL /* "loadgen" */);
    const double r = static_cast<double>(u >> 11) * 0x1.0p-53;
    PlannedJob job;
    if (i == 0 || cold_specs.empty() || r < 0.35) {
      const std::uint64_t h =
          core::mix_seed(seed, static_cast<std::uint64_t>(i), 2);
      char buf[128];
      std::snprintf(buf, sizeof buf, "--family=%s --n=%d --seed=%llu --algo=%s",
                    kFamilies[h % 5], 24 + static_cast<int>((h >> 8) % 41),
                    static_cast<unsigned long long>(1 + ((h >> 16) % 1000)),
                    kAlgos[(h >> 24) % 3]);
      job.spec = buf;
      job.kind = PlannedJob::kCold;
      cold_specs.push_back(job.spec);
    } else if (r < 0.80) {
      const std::uint64_t h =
          core::mix_seed(seed, static_cast<std::uint64_t>(i), 3);
      job.spec = cold_specs[h % cold_specs.size()];
      job.kind = PlannedJob::kWarm;
    } else if (r < 0.90) {
      // Duplicate the nearest preceding well-formed job (job 0 is always
      // cold, so one exists) — duplicating a malformed line would just be
      // another parse error, not a single-flight probe.
      std::size_t j = out.size();
      while (out[j - 1].kind == PlannedJob::kMalformed) --j;
      job.spec = out[j - 1].spec;
      job.kind = PlannedJob::kDup;
    } else {
      job.spec = "--family=grid --loadgen-bogus=" + std::to_string(i);
      job.kind = PlannedJob::kMalformed;
    }
    out.push_back(std::move(job));
  }
  return out;
}

// One outcome frame, keyed by job id for order-independent CRC folding.
struct Outcome {
  daemon::FrameType type;
  std::vector<std::uint8_t> payload;
  double latency_ms = 0.0;
};

// Folds outcomes into the CRC buffer in ascending id order (arrival
// order of immediate rejects vs. queued responses is timing-dependent;
// id order is not).
void fold_outcomes(const std::map<std::uint64_t, Outcome>& outcomes,
                   std::vector<std::uint8_t>* buf) {
  for (const auto& [id, oc] : outcomes) {
    for (int s = 0; s < 64; s += 8) {
      buf->push_back(static_cast<std::uint8_t>(id >> s));
    }
    buf->push_back(static_cast<std::uint8_t>(oc.type));
    buf->insert(buf->end(), oc.payload.begin(), oc.payload.end());
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Reads a counter out of a DaemonMetrics snapshot JSON without a JSON
// parser: the obs JsonWriter emits "name":value with no padding.
long long counter_in_json(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

bool is_outcome(daemon::FrameType t) {
  return t == daemon::FrameType::kResponse || t == daemon::FrameType::kReject ||
         t == daemon::FrameType::kError;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  const int threads = bench::threads_arg(argc, argv, 4);
  const std::uint64_t seed =
      bench::flag_value(argc, argv, "seed")
          ? std::strtoull(bench::flag_value(argc, argv, "seed"), nullptr, 10)
          : 42;
  const int jobs = bench::flag_value(argc, argv, "jobs")
                       ? std::atoi(bench::flag_value(argc, argv, "jobs"))
                       : (quick ? 120 : 400);
  const int window = bench::flag_value(argc, argv, "window")
                         ? std::atoi(bench::flag_value(argc, argv, "window"))
                         : 16;
  const int burst = bench::flag_value(argc, argv, "burst")
                        ? std::atoi(bench::flag_value(argc, argv, "burst"))
                        : 48;
  const int queue = bench::flag_value(argc, argv, "queue")
                        ? std::atoi(bench::flag_value(argc, argv, "queue"))
                        : 32;
  const bool drain_at_end = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--drain") return true;
    }
    return false;
  }();
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // --socket: drive an external daemon. Otherwise run an in-process
  // Server so the binary is self-contained for CI smoke and local runs.
  std::string socket_path;
  if (const char* v = bench::flag_value(argc, argv, "socket")) socket_path = v;
  std::unique_ptr<daemon::Server> server;
  if (socket_path.empty()) {
    socket_path = "/tmp/plansep_loadgen_" + std::to_string(getpid()) + ".sock";
    daemon::ServerOptions sopts;
    sopts.socket_path = socket_path;
    sopts.dispatcher.workers = threads;
    sopts.dispatcher.max_queue = static_cast<std::size_t>(queue);
    sopts.dispatcher.per_client_quota = 4096;  // probe rejects must be
                                               // queue-full, not quota
    sopts.cache_bytes = 32u << 20;
    sopts.cache_shards = 4;
    if (const char* v = bench::flag_value(argc, argv, "metrics-out")) {
      sopts.metrics_out = v;
    }
    if (const char* v = bench::flag_value(argc, argv, "trace-out")) {
      sopts.trace_out = v;
    }
    server = std::make_unique<daemon::Server>(sopts);
    try {
      server->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_loadgen: cannot start server: %s\n",
                   e.what());
      return 2;
    }
  }

  daemon::Client client;
  if (!client.connect(socket_path, 5000)) {
    std::fprintf(stderr, "bench_loadgen: cannot connect to %s\n",
                 socket_path.c_str());
    return 2;
  }

  bench::BenchJson json("loadgen");
  const auto stamp = [&](obs::RowsJson::Row& row) -> obs::RowsJson::Row& {
    return row.set("family", "serving")
        .set("threads", threads)
        .set("host_cores", host_cores)
        .set("seed", static_cast<long long>(seed))
        .set("window", window);
  };
  std::vector<std::string> failures;

  // ------------------------------------------------------------ probe --
  // Dispatch frozen → the burst is admitted strictly in submission
  // order and overflow rejects deterministically with kQueueFull.
  std::printf("E15: plansepd load generator (seed=%llu, threads=%d)\n\n",
              static_cast<unsigned long long>(seed), threads);
  constexpr const char* kProbeSpec = "--family=grid --n=25 --seed=1";
  constexpr std::uint64_t kCtrlBase = 900000;
  std::map<std::uint64_t, Outcome> probe_outcomes;
  long long probe_rejects = 0;
  double probe_wall_ms = 0;
  {
    if (!client.pause(kCtrlBase + 1)) {
      std::fprintf(stderr, "bench_loadgen: pause timed out\n");
      return 2;
    }
    for (int i = 0; i < burst; ++i) {
      client.submit(static_cast<std::uint64_t>(i), daemon::Priority::kNormal,
                    kProbeSpec);
    }
    if (!client.resume(kCtrlBase + 2)) {
      std::fprintf(stderr, "bench_loadgen: resume timed out\n");
      return 2;
    }
    bench::WallTimer timer;
    std::vector<double> latencies;
    while (probe_outcomes.size() < static_cast<std::size_t>(burst)) {
      auto f = client.next_frame(30000);
      if (!f.has_value()) {
        failures.push_back("probe: timed out waiting for outcomes");
        break;
      }
      if (!is_outcome(static_cast<daemon::FrameType>(f->type))) continue;
      Outcome oc;
      oc.type = static_cast<daemon::FrameType>(f->type);
      oc.payload = f->payload;
      oc.latency_ms = timer.ms();
      if (oc.type == daemon::FrameType::kReject) {
        ++probe_rejects;
      } else if (oc.type == daemon::FrameType::kResponse) {
        latencies.push_back(oc.latency_ms);
      }
      probe_outcomes.emplace(f->id, std::move(oc));
    }
    probe_wall_ms = timer.ms();
    const long long admitted =
        static_cast<long long>(probe_outcomes.size()) - probe_rejects;
    std::printf(
        "probe: burst=%d queue=%d -> admitted=%lld rejected=%lld "
        "(%.1f ms after resume)\n",
        burst, queue, admitted, probe_rejects, probe_wall_ms);
    auto& row = json.row()
                    .set("kind", "loadgen")
                    .set("workload", "probe")
                    .set("n", burst)
                    .set("jobs", burst)
                    .set("rejects", probe_rejects)
                    .set("wall_ms", probe_wall_ms)
                    .set("jobs_per_sec",
                         probe_wall_ms > 0
                             ? 1000.0 * static_cast<double>(admitted) /
                                   probe_wall_ms
                             : 0.0)
                    .set("p50_ms", percentile(latencies, 0.50))
                    .set("p99_ms", percentile(latencies, 0.99));
    stamp(row);
    if (probe_rejects < 1) {
      failures.push_back("probe: expected at least one backpressure reject");
    }
  }

  // ------------------------------------------------------------ mixed --
  // The seeded schedule, stop-and-wait with `window` outstanding jobs.
  const auto schedule = plan_schedule(seed, jobs);
  int planned[4] = {0, 0, 0, 0};
  for (const auto& j : schedule) ++planned[j.kind];
  std::map<std::uint64_t, Outcome> mixed_outcomes;
  using Clock = std::chrono::steady_clock;
  std::map<std::uint64_t, Clock::time_point> submit_at;
  constexpr std::uint64_t kMixedBase = 1000;
  double mixed_wall_ms = 0;
  std::vector<double> latencies;
  {
    bench::WallTimer timer;
    std::size_t next = 0;
    int outstanding = 0;
    while (mixed_outcomes.size() < schedule.size()) {
      while (outstanding < window && next < schedule.size()) {
        const std::uint64_t id = kMixedBase + next;
        submit_at[id] = Clock::now();
        client.submit(id, daemon::Priority::kNormal, schedule[next].spec);
        ++next;
        ++outstanding;
      }
      auto f = client.next_frame(30000);
      if (!f.has_value()) {
        failures.push_back("mixed: timed out waiting for outcomes");
        break;
      }
      if (!is_outcome(static_cast<daemon::FrameType>(f->type))) continue;
      if (f->id < kMixedBase) continue;  // probe straggler
      Outcome oc;
      oc.type = static_cast<daemon::FrameType>(f->type);
      oc.payload = f->payload;
      oc.latency_ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - submit_at[f->id])
                          .count();
      latencies.push_back(oc.latency_ms);
      mixed_outcomes.emplace(f->id, std::move(oc));
      --outstanding;
    }
    mixed_wall_ms = timer.ms();
  }
  long long mixed_errors = 0;
  for (const auto& [id, oc] : mixed_outcomes) {
    if (oc.type != daemon::FrameType::kResponse) ++mixed_errors;
  }
  const double jobs_per_sec =
      mixed_wall_ms > 0
          ? 1000.0 * static_cast<double>(mixed_outcomes.size()) / mixed_wall_ms
          : 0.0;
  std::printf(
      "mixed: jobs=%d (cold=%d warm=%d dup=%d malformed=%d) window=%d\n"
      "       %.1f ms, %.1f jobs/s, p50=%.2f ms, p99=%.2f ms\n",
      jobs, planned[0], planned[1], planned[2], planned[3], window,
      mixed_wall_ms, jobs_per_sec, percentile(latencies, 0.50),
      percentile(latencies, 0.99));
  if (mixed_outcomes.size() != schedule.size()) {
    failures.push_back("mixed: " + std::to_string(mixed_outcomes.size()) +
                       " outcomes for " + std::to_string(schedule.size()) +
                       " submissions");
  }
  if (mixed_errors != planned[3]) {
    failures.push_back("mixed: " + std::to_string(mixed_errors) +
                       " non-response outcomes but " +
                       std::to_string(planned[3]) + " malformed jobs planned");
  }

  // ----------------------------------------- fingerprint + self-checks --
  std::vector<std::uint8_t> crc_buf;
  fold_outcomes(probe_outcomes, &crc_buf);
  fold_outcomes(mixed_outcomes, &crc_buf);
  const std::uint32_t payload_crc = io::crc32(crc_buf.data(), crc_buf.size());
  std::printf("payload_crc=%08x\n", payload_crc);

  long long served_warm = 0;
  long long rejected_backpressure = 0;
  if (const auto m = client.metrics(kCtrlBase + 3)) {
    served_warm = counter_in_json(*m, "daemon/cache_served_warm");
    rejected_backpressure =
        counter_in_json(*m, "daemon/rejected_backpressure");
    std::printf("metrics: cache_served_warm=%lld rejected_backpressure=%lld\n",
                served_warm, rejected_backpressure);
  } else {
    failures.push_back("metrics query timed out");
  }
  if (served_warm < 1) {
    failures.push_back("expected at least one warm cache serve");
  }
  if (rejected_backpressure < 1) {
    failures.push_back("expected rejected_backpressure >= 1 in metrics");
  }

  {
    auto& row = json.row()
                    .set("kind", "loadgen")
                    .set("workload", "mixed")
                    .set("n", jobs)
                    .set("jobs", jobs)
                    .set("cold", planned[0])
                    .set("warm", planned[1])
                    .set("dup", planned[2])
                    .set("malformed", planned[3])
                    .set("rejects", mixed_errors)
                    .set("wall_ms", mixed_wall_ms)
                    .set("jobs_per_sec", jobs_per_sec)
                    .set("p50_ms", percentile(latencies, 0.50))
                    .set("p99_ms", percentile(latencies, 0.99))
                    .set("payload_crc", static_cast<long long>(payload_crc))
                    .set("cache_served_warm", served_warm);
    stamp(row);
  }

  // --------------------------------------------------------- teardown --
  // In-process servers always drain (it exercises the graceful path and
  // writes --metrics-out/--trace-out); an external daemon is only
  // drained when asked, so CI can run the generator twice against one
  // daemon before shutting it down.
  if (server || drain_at_end) {
    const auto summary = client.drain(kCtrlBase + 4);
    if (!summary.has_value()) {
      failures.push_back("drain timed out");
    } else {
      std::printf("drain: %s\n", summary->c_str());
    }
  }
  client.close();
  if (server) {
    server->wait();
    server->stop();
  }

  json.write(bench::json_path_arg(argc, argv, "loadgen"));

  if (!failures.empty()) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "[loadgen] SELF-CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("\n[loadgen] all self-checks passed\n");
  return 0;
}
