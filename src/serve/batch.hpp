#pragma once

/// \file
/// Batch serving: job-file parsing, the job runner behind every batch and
/// daemon row, and run_batch, the plansep_batch entry point.

// Determinism contract (DESIGN.md §9): for a fixed job file and cache
// configuration, the row stream is byte-identical across thread counts
// and cold vs warm caches. run_batch is one in-process client of
// daemon::Dispatcher, which delivers rows in admission order; every row
// field derives from the canonical artifact bytes through one bytes→row
// path (a cold run decodes its own artifact, a warm run the cached
// bytes, both verified through serve/verify); rows carry no wall clock
// and no per-job cache disposition; and fault jobs run their fault
// stages uncached under their own FaultController.

#include <cstdint>
#include <future>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "faults/plan.hpp"
#include "planar/embedded_graph.hpp"
#include "serve/cache.hpp"
#include "taskgraph/pipeline.hpp"

namespace plansep::serve {

/// Which stages a job runs.
enum class Algo {
  kSeparator,  ///< cycle separator only (Theorem 1)
  kDfs,        ///< DFS tree only (Theorem 2)
  kPipeline,   ///< separator, then DFS
  /// BFS-level baseline separator (Lipton–Tarjan levels half). Shares the
  /// spanning-tree sub-artifact with the deterministic separator on one
  /// fingerprint.
  kBaselineSeparator,
};

/// Stable name of an algo ("separator", "dfs", "pipeline",
/// "baseline-separator").
const char* algo_name(Algo a);
/// Inverse of algo_name; nullopt for unknown names.
std::optional<Algo> algo_from_name(const std::string& name);

/// One admitted job, as parsed from a job-file line.
struct JobSpec {
  std::string family = "grid";     ///< generator family (family_from_name)
  int n = 64;                      ///< target instance size
  std::uint64_t seed = 1;          ///< generation seed
  Algo algo = Algo::kPipeline;     ///< stages to run
  /// Wall-clock budget in milliseconds, checked between stages; negative
  /// means none. 0 is "already expired" — the deterministic way tests
  /// exercise the deadline path.
  long long deadline_ms = -1;
  faults::FaultSpec faults;        ///< injected fault intensities
  std::uint64_t fault_seed = 0;    ///< base seed for the fault plan
  /// Load this .psg artifact instead of generating (family/n/seed are
  /// then provenance only).
  std::string graph_path;
  int line = 0;                    ///< 1-based job-file line (diagnostics)
};

/// Parses one job-file line of `--key=value` flags (see docs: --family,
/// --n, --seed, --algo, --deadline-ms, --graph, --drop, --dup, --stall,
/// --reorder, --crash, --outage, --fault-seed). Returns nullopt for blank
/// or '#'-comment lines; throws std::runtime_error (with the line number)
/// on unknown flags or malformed values.
std::optional<JobSpec> parse_job_line(const std::string& text, int line_no);

/// Parses a whole job file via parse_job_line.
std::vector<JobSpec> parse_job_file(std::istream& in);

/// A job's instance, generated or loaded, with everything its stages are
/// keyed on.
struct Instance {
  planar::EmbeddedGraph graph;    ///< the instance
  planar::NodeId root = 0;        ///< generator root hint; 0 when loaded
  std::string family;             ///< the .psg's family if set, else the spec's
  bool generated = false;         ///< generated here, so corpus-storable
  std::uint64_t fingerprint = 0;  ///< core::topology_fingerprint(graph)

  /// The stage inputs of this instance (root-keyed config hash).
  /// The inputs point at `graph`, so the instance must outlive them.
  taskgraph::JobInputs inputs() const;
};

/// Generates (family/n/seed) or loads (graph_path) a job's instance —
/// the one acquisition path of batch, daemon and query jobs. Throws on an
/// unknown family or an unreadable .psg.
Instance acquire_instance(const JobSpec& spec);

/// Stores a generated instance in the corpus under `corpus_dir`, with
/// seed 0 in its meta, so the file's bytes do not depend on which job
/// stored it first. Returns an empty future when there is nothing to
/// write: a loaded instance, no corpus ("" = off), or a file already at
/// the instance's content address (one stat; the fingerprint is known).
/// Otherwise the write runs on its own thread, overlapped with the job's
/// compute; get() joins it and rethrows its failure. The instance must
/// outlive the returned future.
std::future<void> store_instance(const Instance& inst,
                                 const std::string& corpus_dir);

/// Execution configuration of batch and daemon jobs.
struct BatchOptions {
  int threads = 1;             ///< run_batch's dispatcher workers
  std::string corpus_dir;      ///< store generated instances here ("" = off)
};

/// Outcome of one job, in admission order.
struct JobResult {
  /// "ok", "check_failed" (a verifier rejected a stage's output),
  /// "deadline" (budget exhausted between stages; completed stages still
  /// reported), or "error" (see `error`).
  std::string status;
  std::string row;    ///< the emitted JSON row (no trailing newline)
  std::string error;  ///< diagnosis when status == "error"
  int attempts = 1;   ///< pipeline attempts (> 1 only under faults)
  /// Stage counters for this job (all zero when it failed). Never
  /// rendered into the row — the row stays byte-identical across thread
  /// counts and cache temperature.
  taskgraph::TaskGraphCounters taskgraph;
};

/// Aggregate outcome of a batch.
struct BatchReport {
  long long jobs = 0;             ///< admitted jobs
  long long ok = 0;               ///< status "ok"
  long long check_failed = 0;     ///< status "check_failed"
  long long deadline_missed = 0;  ///< status "deadline"
  long long errors = 0;           ///< status "error"
  CacheCounters cache;            ///< cache counter delta over this batch
  /// Merged stage counters across the batch's jobs.
  taskgraph::TaskGraphCounters taskgraph;
  std::vector<JobResult> results; ///< per-job outcomes, admission order
};

/// Runs the batch on an in-process daemon::Dispatcher (one worker per
/// `threads`, at most one per job), submitting every job in file order,
/// then draining; defined in src/daemon/batch.cpp. Rows stream to
/// `rows_out` (JSONL, admission order) as completion allows; pass nullptr
/// to collect them only in the report. The cache is caller-owned so
/// consecutive batches share warmth.
BatchReport run_batch(const std::vector<JobSpec>& jobs,
                      const BatchOptions& opts, ResultCache& cache,
                      std::ostream* rows_out = nullptr);

/// Executes one job: the row is a pure function of the job spec, `index`,
/// and the canonical artifact bytes (no wall-clock fields), so a daemon
/// response is byte-identical to the batch row for the same spec and
/// index. `index` lands in the row's "job" field — run_batch passes the
/// job's position, daemon sessions the client's request id.
JobResult run_single_job(const JobSpec& spec, std::uint64_t index,
                         const BatchOptions& opts, ArtifactCache& cache);

}  // namespace plansep::serve
