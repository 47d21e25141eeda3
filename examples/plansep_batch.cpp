// plansep_batch — cache-backed batch serving over a job file.
//
//   plansep_batch --jobs=FILE [--threads=K] [--corpus=DIR]
//                 [--cache-dir=DIR] [--cache-bytes=N]
//                 [--out=FILE] [--metrics-out=FILE]
//
// The job file holds one job per line as --key=value flags (blank lines
// and '#' comments skipped), e.g.
//
//   --family=grid --n=256 --seed=7 --algo=pipeline
//   --family=triangulation --n=500 --seed=3 --algo=separator --drop=0.02
//
// Each job generates (or loads, --graph=PATH) a planar instance, runs the
// requested stages through the content-addressed result cache, verifies
// the artifacts, and emits one JSON row; rows stream in admission order
// and are byte-identical across thread counts and cache temperature
// (DESIGN.md §9). --cache-dir persists results across process runs — run
// the same job file twice against one cache dir and the second run serves
// every fault-free stage warm. --corpus stores generated instances under
// corpus/<family>/<fingerprint>.psg. --metrics-out writes the obs
// registry snapshot (serve/* counters included) as JSON.
//
// Exit status: 0 all jobs ok; 1 some job errored or failed verification;
// 2 usage/setup error; 3 every failure was a missed deadline (the batch
// computed correctly but blew its time budget — schedulers treat this as
// "retry with a bigger budget", not as a correctness failure).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "obs/sink.hpp"
#include "serve/batch.hpp"
#include "util/parse.hpp"

namespace {

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: plansep_batch --jobs=FILE [--threads=K] "
               "[--corpus=DIR] [--cache-dir=DIR] [--cache-bytes=N] "
               "[--out=FILE] [--metrics-out=FILE]\n");
  return 2;
}

int bad_value(const std::string& arg) {
  std::fprintf(stderr, "bad value: %s\n", arg.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plansep;

  std::string jobs_path;
  std::string out_path;
  std::string metrics_path;
  serve::BatchOptions opts;
  serve::ResultCache::Options cache_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (flag_value(arg, "jobs", &v)) {
      jobs_path = v;
    } else if (flag_value(arg, "threads", &v)) {
      const std::optional<long long> k =
          parse_int_in(v, 1, std::numeric_limits<int>::max());
      if (!k) return bad_value(arg);
      opts.threads = static_cast<int>(*k);
    } else if (flag_value(arg, "corpus", &v)) {
      opts.corpus_dir = v;
    } else if (flag_value(arg, "cache-dir", &v)) {
      cache_opts.disk_dir = v;
    } else if (flag_value(arg, "cache-bytes", &v)) {
      const std::optional<std::uint64_t> bytes = parse_u64(v);
      if (!bytes) return bad_value(arg);
      cache_opts.capacity_bytes = static_cast<std::size_t>(*bytes);
    } else if (flag_value(arg, "out", &v)) {
      out_path = v;
    } else if (flag_value(arg, "metrics-out", &v)) {
      metrics_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage();
    }
  }
  if (jobs_path.empty()) return usage();

  std::vector<serve::JobSpec> jobs;
  try {
    if (jobs_path == "-") {
      jobs = serve::parse_job_file(std::cin);
    } else {
      std::ifstream in(jobs_path);
      if (!in) {
        std::fprintf(stderr, "cannot open job file %s\n", jobs_path.c_str());
        return 2;
      }
      jobs = serve::parse_job_file(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::ofstream out_file;
  std::ostream* rows_out = &std::cout;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    rows_out = &out_file;
  }

  // A scope-local registry collects the serve/* counters run_batch folds
  // at batch end, so --metrics-out works without the PLANSEP_METRICS env
  // hookup. (Per-round instrumentation stays detached inside the batch.)
  obs::MetricsRegistry reg;
  serve::BatchReport rep;
  {
    obs::ScopedMetrics metrics(reg);
    serve::ResultCache cache(cache_opts);
    rep = serve::run_batch(jobs, opts, cache, rows_out);
  }

  if (!metrics_path.empty()) {
    std::ofstream mf(metrics_path);
    if (!mf) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 2;
    }
    mf << reg.to_json();
  }

  std::fprintf(stderr,
               "[batch] jobs=%lld ok=%lld check_failed=%lld deadline=%lld "
               "errors=%lld | cache hits=%lld disk_hits=%lld misses=%lld "
               "evictions=%lld\n",
               rep.jobs, rep.ok, rep.check_failed, rep.deadline_missed,
               rep.errors, rep.cache.hits, rep.cache.disk_hits,
               rep.cache.misses, rep.cache.evictions);
  if (rep.deadline_missed > 0) {
    std::fprintf(stderr, "[batch] %lld of %lld jobs missed their deadline\n",
                 rep.deadline_missed, rep.jobs);
  }
  if (rep.ok == rep.jobs) return 0;
  // Deadline-only failure is its own exit code: the work that finished is
  // correct, the batch just ran out of budget.
  return rep.errors == 0 && rep.check_failed == 0 ? 3 : 1;
}
