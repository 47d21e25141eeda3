#pragma once

// Shared helpers for the experiment binaries (bench/). Each binary
// regenerates one experiment of EXPERIMENTS.md, prints a plain-text table,
// and emits a machine-readable <name>.bench.json next to it so the perf
// trajectory accumulates across commits. Flags understood by every binary
// that uses these helpers:
//   --quick            shrink the sweep for smoke runs
//   --threads=K        run_batch's worker count (bench_taskgraph only)
//   --json=PATH        override the JSON output path ("" suppresses it)
//   --metrics-out=PATH write observability metrics JSON (src/obs/)
//   --trace-out=PATH   write a Chrome trace-event / Perfetto file

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/plansep.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "obs/trace_export.hpp"
#include "util/table.hpp"

namespace plansep::bench {

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Value of a "--key=value" flag, or nullptr when absent.
inline const char* flag_value(int argc, char** argv, const char* key) {
  const std::size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0 &&
        std::strncmp(argv[i] + 2, key, klen) == 0 && argv[i][2 + klen] == '=') {
      return argv[i] + 2 + klen + 1;
    }
  }
  return nullptr;
}

/// --threads=K (>= 1); falls back to the given default.
inline int threads_arg(int argc, char** argv, int fallback = 4) {
  if (const char* v = flag_value(argc, argv, "threads")) {
    const int k = std::atoi(v);
    if (k >= 1) return k;
  }
  return fallback;
}

/// --json=PATH; empty string = suppress. Default: <name>.bench.json in cwd.
inline std::string json_path_arg(int argc, char** argv,
                                 const std::string& bench_name) {
  if (const char* v = flag_value(argc, argv, "json")) return v;
  return bench_name + ".bench.json";
}

inline double polylog2(int n) {
  const double l = std::log2(std::max(2, n));
  return l * l;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  /// Restarts the clock — one timer can time many repetitions in place.
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimum wall time of `reps` runs of fn — the noise-tolerant estimate
/// the perf-regression gate compares (min, not mean: scheduling noise is
/// strictly additive, so the minimum is the cleanest repeatable sample).
template <typename Fn>
inline double min_wall_ms(int reps, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  WallTimer timer;
  for (int r = 0; r < std::max(1, reps); ++r) {
    timer.reset();
    fn();
    best = std::min(best, timer.ms());
  }
  return best;
}

/// --reps=N (>= 1); falls back to the given default. Repetition count for
/// min-of-reps timing.
inline int reps_arg(int argc, char** argv, int fallback = 3) {
  if (const char* v = flag_value(argc, argv, "reps")) {
    const int k = std::atoi(v);
    if (k >= 1) return k;
  }
  return fallback;
}

// ------------------------------------------------------------- JSON out --
//
// The flat row-oriented schema shared by every bench lives in
// src/obs/json.hpp (obs::RowsJson) so the observability exporters and the
// bench harness render JSON identically; the historical name stays.

using BenchJson = obs::RowsJson;

// ---------------------------------------------------------- obs session --

/// Opt-in observability for a bench run: when --metrics-out and/or
/// --trace-out are given, installs a metrics scope (registry + chained
/// trace sink) for the lifetime of the object and writes the requested
/// exports at destruction. With neither flag the bench runs with metrics
/// fully disabled — construct one of these first in every bench main.
class ObsSession {
 public:
  ObsSession(int argc, char** argv) {
    if (const char* v = flag_value(argc, argv, "metrics-out")) {
      metrics_path_ = v;
    }
    if (const char* v = flag_value(argc, argv, "trace-out")) trace_path_ = v;
    if (!metrics_path_.empty() || !trace_path_.empty()) {
      scoped_.emplace(registry_);
    }
  }
  ~ObsSession() {
    if (!scoped_.has_value()) return;
    scoped_.reset();  // detach + fold pending per-run state
    obs::write_metrics_json(registry_, metrics_path_);
    obs::write_chrome_trace(registry_, trace_path_);
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool enabled() const { return scoped_.has_value(); }

 private:
  obs::MetricsRegistry registry_;
  std::optional<obs::ScopedMetrics> scoped_;
  std::string metrics_path_;
  std::string trace_path_;
};

struct SweepPoint {
  planar::Family family;
  int n;
};

inline std::vector<SweepPoint> standard_sweep(bool quick) {
  using planar::Family;
  if (quick) {
    return {{Family::kGrid, 100},
            {Family::kTriangulation, 200},
            {Family::kOuterplanar, 120}};
  }
  return {
      {Family::kGrid, 400},        {Family::kGrid, 1600},
      {Family::kGrid, 6400},       {Family::kGridDiagonals, 1600},
      {Family::kCylinder, 1600},   {Family::kTriangulation, 500},
      {Family::kTriangulation, 2000}, {Family::kTriangulation, 8000},
      {Family::kRandomPlanar, 2000},  {Family::kOuterplanar, 1000},
      {Family::kCycle, 600},       {Family::kRandomTree, 2000},
  };
}

}  // namespace plansep::bench
