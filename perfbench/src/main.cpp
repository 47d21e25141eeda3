// plansepd_bench — the plansepd end-to-end benchmark.
//
//   plansepd_bench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0: starts an in-process daemon::Server, drives the workload's
// stream against it over the UNIX socket from one client connection
// holding a window of outstanding requests (closed loop) for about S
// seconds, checks every answer, and prints the end-to-end metrics.
//
// --trace 1: the traced replay (replay.cpp). For each of the three
// workloads it takes the stream's prime and first block, replays them
// serially through the entry points the dispatcher calls
// (serve::run_single_job, query::run_query_job, ingest::ingest_string)
// untraced and traced (ledger.hpp), runs the standalone pass, and prints
// the per-layer self-time tables, the unattributed share and the tracing
// overhead. The named workload's requests are also sent through a daemon
// first, for queue wait, queue depth, ping RTT and frame codec cost. Per-layer metrics each come from
// the workload whose end-to-end numbers they should move (README.md).
//
// The last stdout line is the JSON result. Any failed check makes the
// result `correct: false` and the exit code 1. Scratch files (socket,
// corpus) live under .bench_run/ in the working directory and are
// removed at exit; span dumps stay in .bench_run/spans/.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/fingerprint.hpp"
#include "daemon/protocol.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace plansep;

constexpr int kOracleSamples = 4;  // BFS-checked pairs per query response
// Fresh daemons timed for setup_s. One start takes about a millisecond,
// so a single one is mostly scheduler noise; the median of a few hundred
// is steady.
constexpr int kSetupStarts = 301;

// ------------------------------------------------------ answer checking --

bool type_is(const Outcome& o, daemon::FrameType t) {
  return o.done && o.type == static_cast<std::uint8_t>(t);
}

// Expected-reject check shared by malformed job and query lines.
std::string check_bad_spec(const Outcome& o) {
  if (!type_is(o, daemon::FrameType::kError)) return "expected kError";
  const auto st = daemon::decode_status(o.payload);
  return st.code == daemon::StatusCode::kBadJobSpec ? "" : "wrong status code";
}

// One sent request with its outcome and verdict ("" = ok).
struct Sent {
  const Request* r = nullptr;
  const Outcome* o = nullptr;
  bool timed = false;  ///< in the timed loop (not the prime)
  std::size_t input_bytes = 0;
  std::string why;
};

// Checks that are not about one request; any entry fails the run.
using GlobalFailures = std::vector<std::pair<std::string, std::string>>;

// -- jobs --

// Serial run_batch over the given requests (malformed lines replaced by a
// trivial placeholder so row indices equal the wire ids, which start at 0
// and are contiguous).
serve::BatchReport batch_of(const std::vector<const Request*>& reqs,
                            const std::string& corpus) {
  std::vector<serve::JobSpec> specs;
  for (const Request* r : reqs) {
    const std::string line = r->klass == Klass::kReject
                                 ? "--family=grid --n=16 --seed=1"
                                 : r->line;
    specs.push_back(*serve::parse_job_line(line, static_cast<int>(r->id) + 1));
  }
  serve::BatchOptions bo;
  bo.threads = 1;
  bo.corpus_dir = corpus;
  serve::ResultCache cache({kConfig.cache_bytes, ""});
  return serve::run_batch(specs, bo, cache, nullptr);
}

void check_jobs(std::vector<Sent>& all, const std::string& dir,
                GlobalFailures& global, Counters& det) {
  std::map<std::uint64_t, std::string> rows;  // by id
  for (Sent& x : all) {
    if (!x.o->done) {
      x.why = "no outcome (timeout)";
      continue;
    }
    try {
      if (x.r->klass == Klass::kReject) {
        x.why = check_bad_spec(*x.o);
        continue;
      }
      if (!type_is(*x.o, daemon::FrameType::kResponse)) {
        x.why = "unplanned reject/error";
        continue;
      }
      const auto resp = daemon::decode_response(x.o->payload);
      rows[x.r->id] = resp.row;
      if (resp.status != "ok") x.why = "status " + resp.status;
      if (x.why.empty() && x.r->klass == Klass::kWarm &&
          row_body(rows[static_cast<std::uint64_t>(x.r->source)]) !=
              row_body(resp.row)) {
        x.why = "warm row differs from its cold row";
      }
    } catch (const std::exception& e) {
      x.why = std::string("undecodable outcome: ") + e.what();
    }
  }

  // daemon ≡ batch over the prefix (prime + block 0).
  std::vector<Sent*> prefix;
  for (Sent& x : all) {
    if (x.r->block <= 0) prefix.push_back(&x);
  }
  std::vector<const Request*> reqs;
  for (const Sent* x : prefix) reqs.push_back(x->r);
  const serve::BatchReport rep = batch_of(reqs, dir + "/batch-corpus");
  long long matched = 0;
  long long tasks_run = 0;
  long long cache_served = 0;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    Sent& x = *prefix[i];
    if (x.r->klass == Klass::kReject) continue;
    tasks_run += rep.results[i].taskgraph.tasks_run;
    cache_served += rep.results[i].taskgraph.cache_served;
    if (rows[x.r->id] == rep.results[i].row) {
      ++matched;
    } else if (x.why.empty()) {
      x.why = "daemon row differs from run_batch row";
    }
  }
  if (matched == 0) global.emplace_back("daemon==batch", "no rows compared");
  det.emplace_back("jobs.prefix_rows_matching_batch", matched);
  det.emplace_back("taskgraph.tasks_run(batch,prefix)", tasks_run);
  det.emplace_back("taskgraph.cache_served(batch,prefix)", cache_served);
}

// -- queries --

// Exact BFS distance from u to w over g minus the dead edges.
std::int64_t bfs_distance(const planar::EmbeddedGraph& g, int u, int w,
                          const std::vector<std::pair<int, int>>& dead) {
  std::unordered_set<std::uint64_t> killed;
  for (auto [a, b] : dead) {
    if (a > b) std::swap(a, b);
    killed.insert((static_cast<std::uint64_t>(a) << 32) |
                  static_cast<std::uint32_t>(b));
  }
  std::vector<std::int64_t> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(u)] = 0;
  q.push(u);
  while (!q.empty()) {
    const int x = q.front();
    q.pop();
    if (x == w) break;
    for (const planar::DartId d : g.rotation(x)) {
      const int y = g.head(d);
      if (dist[static_cast<std::size_t>(y)] >= 0) continue;
      const int a = std::min(x, y);
      const int b = std::max(x, y);
      if (!killed.empty() &&
          killed.count((static_cast<std::uint64_t>(a) << 32) |
                       static_cast<std::uint32_t>(b))) {
        continue;
      }
      dist[static_cast<std::size_t>(y)] = dist[static_cast<std::size_t>(x)] + 1;
      q.push(y);
    }
  }
  return dist[static_cast<std::size_t>(w)];
}

// Checks one query outcome, BFS-checking kOracleSamples of its pairs.
std::string check_query(const Stream& s, const Request& r, const Outcome& o,
                        bool expect_engine_hit, long long& oracle_checked) {
  if (!o.done) return "no outcome (timeout)";
  if (r.klass == Klass::kReject) return check_bad_spec(o);
  if (!type_is(o, daemon::FrameType::kQueryResp)) return "unplanned reject/error";
  const auto resp = daemon::decode_query_response(o.payload);
  if (resp.status != "ok") return "status " + resp.status + ": " + resp.error;
  const std::vector<std::pair<int, int>> pairs = query_pairs(r);
  if (resp.distances.size() != pairs.size()) return "answer count";
  if ((resp.engine_cache_hit != 0) != expect_engine_hit) {
    return "engine-cache disposition";
  }
  const planar::EmbeddedGraph& g =
      s.instances[static_cast<std::size_t>(r.instance)].graph;
  Rng rng(core::mix_seed(r.id, 0x6f7261636c65));
  for (int k = 0; k < kOracleSamples; ++k) {
    const std::size_t i = rng.next_below(pairs.size());
    const auto [u, w] = pairs[i];
    ++oracle_checked;
    if (bfs_distance(g, u, w, r.dead_edges) != resp.distances[i]) {
      return "distance differs from the BFS oracle";
    }
  }
  return "";
}

// -- ingest --

std::string check_ingest(const Request& r, const Outcome& o,
                         const daemon::IngestResponsePayload* source,
                         daemon::IngestResponsePayload& resp) {
  if (!o.done) return "no outcome (timeout)";
  if (!type_is(o, daemon::FrameType::kIngestResp)) return "unplanned reject/error";
  resp = daemon::decode_ingest_response(o.payload);
  if (r.expect_code == 0) {
    if (resp.status != "ok") return "rejected: " + resp.error;
    if (resp.fingerprint == 0 || resp.corpus_path.empty()) return "not stored";
    if (source != nullptr &&
        (source->fingerprint != resp.fingerprint ||
         source->nodes != resp.nodes || source->edges != resp.edges)) {
      return "repeat admission differs from the first";
    }
    return "";
  }
  if (resp.status != "rejected") return "expected a rejection";
  if (resp.error_code != r.expect_code) {
    return "error code " + std::to_string(resp.error_code) + ", planned " +
           std::to_string(r.expect_code);
  }
  if (r.expect_code == 9 && resp.witness.empty()) return "no witness";
  return "";
}

// ====================================================== end-to-end run ==

// Median per-block throughput. Every block has the same layout; the first
// (ramp-up) and the last (drain) are left out. Falls back to the whole
// loop when fewer than three blocks ran.
double block_throughput(const LoopResult& lr, int block_size) {
  const std::vector<double>& done = lr.block_done_s;
  std::vector<double> tp;
  for (std::size_t b = 1; b + 1 < done.size(); ++b) {
    tp.push_back(block_size / (done[b] - done[b - 1]));
  }
  if (tp.empty()) return static_cast<double>(lr.sent) / lr.wall_s;
  return quantile(tp, 0.5);
}

int run_end_to_end(const Args& a) {
  const std::string dir = ".bench_run/" + a.workload + "-s" +
                          std::to_string(a.seed) + "-p" +
                          std::to_string(getpid());
  ScratchDir scratch(dir);
  const std::string corpus = dir + "/corpus";

  // Input preparation (not part of set-up): enough blocks for the budget
  // at well above the measured rate.
  const Stream s = make_stream(a.workload, a.seed, 4 * a.seconds + 2, corpus);

  Live live;
  const double setup_s = setup_daemon(dir, corpus, live, kSetupStarts);

  // The prime runs untimed before the loop: query instances one at a time,
  // so each prime latency is that instance's index build; the jobs prime
  // with the usual window.
  const LoopResult prime =
      closed_loop(live.client, s.kind, s.prime,
                  s.kind == Kind::kQuery ? 1 : kConfig.window, s.block_size, -1);
  const LoopResult lr = closed_loop(live.client, s.kind, s.requests,
                                    kConfig.window, s.block_size, a.seconds);
  const double rss_mb = peak_rss_mb();
  const serve::CacheCounters cache_counters = live.server->cache().counters();
  const query::EngineCache::Counters engine_counters =
      live.server->dispatcher().engine_cache().counters();
  live.stop();

  std::vector<Sent> all;
  for (std::size_t i = 0; i < prime.sent; ++i) {
    all.push_back({&s.prime[i], &prime.out[i], false, prime.input_bytes[i], ""});
  }
  for (std::size_t i = 0; i < lr.sent; ++i) {
    all.push_back({&s.requests[i], &lr.out[i], true, lr.input_bytes[i], ""});
  }
  GlobalFailures global;
  Counters det;
  double admitted_bytes = 0;
  long long answers = 0;

  if (s.kind == Kind::kJob) {
    check_jobs(all, dir, global, det);
  } else if (s.kind == Kind::kQuery) {
    long long oracle_checked = 0;
    long long read_only = 0;
    for (Sent& x : all) {
      const bool hit = x.timed && x.r->klass == Klass::kWarm;
      read_only += hit ? 1 : 0;
      try {
        x.why = check_query(s, *x.r, *x.o, hit, oracle_checked);
      } catch (const std::exception& e) {
        x.why = std::string("undecodable outcome: ") + e.what();
      }
      if (x.why.empty() && x.timed && x.r->klass != Klass::kReject) {
        answers += static_cast<long long>(x.input_bytes / 8);
      }
    }
    // Four instances, capacity four: every count below is exact.
    if (engine_counters.misses != 4 || engine_counters.hits != read_only) {
      global.emplace_back("engine cache",
                          "misses " + std::to_string(engine_counters.misses) +
                              ", hits " + std::to_string(engine_counters.hits));
    }
    if (cache_counters.misses != 8) {
      global.emplace_back("artifact cache",
                          "expected 8 computes (4 trees + 4 indexes), saw " +
                              std::to_string(cache_counters.misses));
    }
    if (oracle_checked == 0) global.emplace_back("oracle", "no pairs checked");
    det.emplace_back("query.artifact_computes", cache_counters.misses);
    det.emplace_back("query.artifact_bytes", cache_counters.inserted_bytes);
    det.emplace_back("query.engine_builds", engine_counters.misses);
    det.emplace_back("query.oracle_pairs_checked", oracle_checked);
  } else {
    std::map<std::uint64_t, daemon::IngestResponsePayload> resp;  // by id
    long long accepted = 0;
    for (Sent& x : all) {
      const auto src = resp.find(static_cast<std::uint64_t>(x.r->source));
      try {
        x.why = check_ingest(*x.r, *x.o,
                             x.r->source >= 0 && src != resp.end() ? &src->second
                                                                    : nullptr,
                             resp[x.r->id]);
      } catch (const std::exception& e) {
        x.why = std::string("undecodable outcome: ") + e.what();
      }
      if (x.why.empty() && x.r->expect_code == 0) {
        if (x.timed) admitted_bytes += static_cast<double>(x.input_bytes);
        ++accepted;
      }
    }
    if (accepted == 0) global.emplace_back("ingest", "nothing accepted");
  }

  // The prefix (prime + block 0) fingerprint; the traced replay prints the
  // same value for the same seed.
  {
    std::vector<std::uint64_t> ids;
    std::vector<std::string> outputs;
    for (const Sent& x : all) {
      if (x.r->block > 0) continue;
      ids.push_back(x.r->id);
      outputs.push_back(output_of_frame(s.kind, *x.o));
    }
    det.emplace_back(a.workload + ".output_crc(prefix)", output_crc(ids, outputs));
  }

  // ---- accounting
  Accounting acc;    // every class, the prime included
  Accounting timed;  // the timed loop only
  for (const Sent& x : all) {
    const std::string k = x.timed ? klass_name(x.r->klass) : "prime";
    acc.record(k, x.o->latency_ms, x.why.empty());
    if (x.timed) timed.record(k, x.o->latency_ms, x.why.empty());
  }
  const long long attempted = acc.attempted();
  const long long failed = acc.failed() + static_cast<long long>(global.size());
  const bool correct = failed == 0 && !lr.timed_out && !prime.timed_out;

  const auto p50 = [&](const std::string& k) {
    return summarize(acc.get(k).latency_ms).p50;
  };
  const Summary tail = summarize(timed.all_latencies());
  // On query_mixed the results computed fresh are the dead-edge writes,
  // each served by a private engine; the prime's four index builds are
  // too few for a steady median and are printed as the prime class.
  const std::string cold = s.kind == Kind::kQuery ? "write" : "cold";

  std::printf("plansepd benchmark: workload=%s seed=%llu seconds=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds);
  std::printf("daemon: workers=%d window=%d max_queue=%zu quota=%lld "
              "cache=%zuMiB/%d shards engine_capacity=%zu host_cores=%ld\n",
              kConfig.workers, kConfig.window, kConfig.max_queue, kConfig.quota,
              kConfig.cache_bytes >> 20, kConfig.cache_shards,
              kConfig.engine_capacity, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("timed loop: %zu requests in %.3f s (%zu blocks)%s\n", lr.sent,
              lr.wall_s, lr.block_done_s.size(),
              lr.sent == s.requests.size() ? "  [stream exhausted]" : "");
  std::printf("block completion (s):");
  for (const double t : lr.block_done_s) std::printf(" %.2f", t);
  // Median latency of each block slot: shows where head-of-line waits sit.
  std::printf("\nslot medians (ms):");
  const auto bs = static_cast<std::size_t>(s.block_size);
  for (std::size_t k = 0; k < bs && k < lr.sent; ++k) {
    std::vector<double> v;
    for (std::size_t i = k; i < lr.sent; i += bs) v.push_back(lr.out[i].latency_ms);
    std::printf(" %s:%.0f", klass_name(s.requests[k].klass), quantile(v, 0.5));
  }
  std::printf("\n\n-- latency by class (ms)\n");
  for (const auto& [k, c] : acc.classes()) {
    std::printf("  %-13s attempted=%-5lld failed=%-3lld %s\n", k.c_str(),
                c.attempted, c.failed,
                describe(summarize(c.latency_ms), "ms").c_str());
  }
  std::printf("  %-13s %s\n", "all (timed)", describe(tail, "ms").c_str());

  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"requests_per_s", block_throughput(lr, s.block_size), "1/s"});
  m.push_back({"latency_tail_ms", tail.tail, "ms"});
  m.push_back({"cold_p50_ms", p50(cold), "ms"});
  m.push_back({"warm_p50_ms", p50("warm"), "ms"});
  m.push_back({"reject_p50_ms", p50("reject"), "ms"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});

  std::printf("\n-- end-to-end metrics\n");
  for (const Metric& x : m) {
    std::printf("  %-20s %14.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("  %-20s p%g over %zu timed requests, %zu beyond\n",
              "(tail percentile)", tail.tail_pct, tail.n, tail.beyond);
  if (s.kind == Kind::kQuery) {
    std::printf("  %-20s %14.1f 1/s\n", "queries_per_s",
                static_cast<double>(answers) / lr.wall_s);
  }
  if (s.kind == Kind::kIngest) {
    std::printf("  %-20s %14.4f MB/s\n", "admit_mb_per_s",
                admitted_bytes / (1024.0 * 1024.0) / lr.wall_s);
    std::printf("  %-20s %14.4f ms\n", "cheap_reject_p50_ms",
                p50("cheap_reject"));
  }
  std::printf("  %-20s %14.6f   (%lld failed / %lld attempted)\n",
              "ops_failed_share",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  print_counters(det);

  for (const Sent& x : all) {
    if (!x.why.empty()) {
      std::printf("FAILED request %llu (%s): %s\n",
                  static_cast<unsigned long long>(x.r->id),
                  klass_name(x.r->klass), x.why.c_str());
    }
  }
  for (const auto& [name, why] : global) {
    std::printf("FAILED check %s: %s\n", name.c_str(), why.c_str());
  }
  if (lr.timed_out || prime.timed_out) {
    std::printf("FAILED: timed out waiting for outcomes\n");
  }
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int run_traced(const Args& a);  // replay.cpp

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: plansepd_bench --workload "
                 "{jobs_mixed|query_mixed|ingest_mixed} --seed N --seconds S "
                 "--trace {0|1}\n");
    return 2;
  }
  try {
    return args->trace == 0 ? perfbench::run_end_to_end(*args)
                            : perfbench::run_traced(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plansepd_bench: %s\n", e.what());
    return 1;
  }
}
