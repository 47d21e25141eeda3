#include "serve/batch.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/fingerprint.hpp"
#include "faults/controller.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "obs/json.hpp"
#include "planar/generators.hpp"
#include "serve/verify.hpp"
#include "subroutines/components.hpp"
#include "util/parse.hpp"

namespace plansep::serve {

namespace {

using Clock = std::chrono::steady_clock;

long long elapsed_ms(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

// ------------------------------------------------------------- job rows --

/// Deterministic separator row fields, all derived from the decoded
/// artifact (never from live engine state — see the file comment).
struct SepRow {
  int phase = 0;
  long long path = 0;
  double balance = 0;
  int components = 0;
  bool verified = false;
  long long measured = 0;
  long long charged = 0;
};

/// Deterministic DFS row fields, likewise artifact-derived.
struct DfsRow {
  int phases = 0;
  int depth = 0;
  bool verified = false;
  long long measured = 0;
  long long charged = 0;
};

/// Deterministic baseline-separator row fields, artifact-derived.
struct BaselineRow {
  bool found = false;
  long long size = 0;
  double balance = 0;
  int levels = 0;
  bool verified = false;
};

// Everything a job accumulates before its row is rendered.
struct JobRun {
  const JobSpec* spec = nullptr;
  std::uint64_t index = 0;
  std::string status = "ok";
  std::string error;
  int attempts = 1;
  bool have_graph = false;
  std::string family;
  planar::NodeId nodes = 0;
  planar::EdgeId edges = 0;
  std::uint64_t fingerprint = 0;
  std::optional<SepRow> sep;
  std::optional<DfsRow> dfs;
  std::optional<BaselineRow> baseline;
  taskgraph::TaskGraphCounters tg;
};

std::string render_row(const JobRun& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("job").value(static_cast<long long>(r.index));
  w.key("family").value(r.family.empty() ? r.spec->family : r.family);
  w.key("algo").value(algo_name(r.spec->algo));
  w.key("seed").value(static_cast<long long>(r.spec->seed));
  w.key("faults").value(r.spec->faults.enabled());
  if (r.have_graph) {
    w.key("n").value(static_cast<long long>(r.nodes));
    w.key("edges").value(static_cast<long long>(r.edges));
    w.key("fingerprint").value(core::fingerprint_hex(r.fingerprint));
  } else {
    w.key("n").value(static_cast<long long>(r.spec->n));
  }
  w.key("status").value(r.status);
  w.key("attempts").value(r.attempts);
  if (r.sep) {
    w.key("separator").begin_object();
    w.key("phase").value(r.sep->phase);
    w.key("path").value(r.sep->path);
    w.key("balance").value(r.sep->balance);
    w.key("components").value(r.sep->components);
    w.key("verified").value(r.sep->verified);
    w.key("measured").value(r.sep->measured);
    w.key("charged").value(r.sep->charged);
    w.end_object();
  }
  if (r.dfs) {
    w.key("dfs").begin_object();
    w.key("phases").value(r.dfs->phases);
    w.key("depth").value(r.dfs->depth);
    w.key("verified").value(r.dfs->verified);
    w.key("measured").value(r.dfs->measured);
    w.key("charged").value(r.dfs->charged);
    w.end_object();
  }
  if (r.baseline) {
    w.key("baseline").begin_object();
    w.key("found").value(r.baseline->found);
    w.key("size").value(r.baseline->size);
    w.key("balance").value(r.baseline->balance);
    w.key("levels").value(r.baseline->levels);
    w.key("verified").value(r.baseline->verified);
    w.end_object();
  }
  if (!r.error.empty()) w.key("error").value(r.error);
  w.end_object();
  return w.str();
}

// -------------------------------------------------------- job execution --

// Decodes a cached/computed separator artifact and fills the row — the one
// bytes→row path shared by cold and warm runs.
SepRow sep_row_from_bytes(const planar::EmbeddedGraph& g,
                          const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  const io::Section* sec = a.find(io::SectionId::kSeparator);
  if (sec == nullptr) throw io::FormatError("artifact lacks kSeparator");
  const io::SeparatorArtifact sa = io::decode_separator(sec->bytes);
  const SeparatorVerify v = verify_separator_artifact(g, sa);
  SepRow row;
  row.phase = sa.part.phase;
  row.path = static_cast<long long>(sa.part.path.size());
  row.balance = v.balance;
  row.components = v.components;
  row.verified = v.ok();
  row.measured = sa.cost.measured;
  row.charged = sa.cost.charged;
  return row;
}

DfsRow dfs_row_from_bytes(const planar::EmbeddedGraph& g,
                          const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  const io::Section* sec = a.find(io::SectionId::kDfsTree);
  if (sec == nullptr) throw io::FormatError("artifact lacks kDfsTree");
  const io::DfsArtifact da = io::decode_dfs(sec->bytes);
  const DfsVerify v = verify_dfs_artifact(g, da);
  DfsRow row;
  row.phases = da.phases;
  row.depth = v.max_depth;
  row.verified = v.ok();
  row.measured = da.cost.measured;
  row.charged = da.cost.charged;
  return row;
}

BaselineRow baseline_row_from_bytes(const planar::EmbeddedGraph& g,
                                    const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  const io::Section* sec = a.find(io::SectionId::kLevelSeparator);
  if (sec == nullptr) throw io::FormatError("artifact lacks kLevelSeparator");
  const io::LevelSeparatorArtifact la = io::decode_level_separator(sec->bytes);
  BaselineRow row;
  row.found = la.result.found;
  row.size = static_cast<long long>(la.result.separator.size());
  row.balance = la.result.balance;
  row.levels = la.result.levels_used;
  if (!la.result.found) {
    row.verified = la.result.separator.empty();
    return row;
  }
  // Re-derive the balance from the decoded node set: ids in range, no
  // duplicates, stored balance exact, and the 2/3 bound actually held.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<char> in_sep(n, 0);
  bool ok = !la.result.separator.empty() && la.result.separator.size() < n;
  for (const planar::NodeId v : la.result.separator) {
    if (v < 0 || static_cast<std::size_t>(v) >= n ||
        in_sep[static_cast<std::size_t>(v)]) {
      ok = false;
      break;
    }
    in_sep[static_cast<std::size_t>(v)] = 1;
  }
  if (ok) {
    const sub::Components comps = sub::connected_components(
        g, [&](planar::NodeId v) { return !in_sep[static_cast<std::size_t>(v)]; });
    int max_size = 0;
    for (const int s : comps.size) max_size = std::max(max_size, s);
    const double bal = static_cast<double>(max_size) / g.num_nodes();
    ok = bal == la.result.balance && 3 * bal <= 2.0;
  }
  row.verified = ok;
  return row;
}

JobRun execute_job(const JobSpec& spec, std::uint64_t index,
                   const BatchOptions& opts, ArtifactCache& cache) {
  JobRun run;
  run.spec = &spec;
  run.index = index;
  const auto start = Clock::now();

  try {
    const Instance inst = acquire_instance(spec);
    // Declared after `inst`, so an exception joins the write before the
    // instance it reads goes away.
    std::future<void> store = store_instance(inst, opts.corpus_dir);
    run.have_graph = true;
    run.family = inst.family;
    run.nodes = inst.graph.num_nodes();
    run.edges = inst.graph.num_edges();
    run.fingerprint = inst.fingerprint;

    // Faulty jobs install their controller on this thread for the whole
    // job: both stages draw from one deterministic epoch sequence, and
    // retries see fresh faults.
    const bool faulty = spec.faults.enabled();
    std::optional<faults::FaultController> ctl;
    std::optional<faults::ScopedFaultInjection> inj;
    if (faulty) {
      ctl.emplace(spec.faults, spec.fault_seed);
      inj.emplace(*ctl);
    }

    // One Stages per job shares the spanning tree and the engine between
    // this job's stages; the cache's single-flight shares artifacts with
    // concurrent jobs on the same fingerprint.
    const taskgraph::JobInputs in = inst.inputs();
    taskgraph::Stages stages(in, cache);
    // A fault job computes each stage through its recovery driver instead,
    // uncached, since its bytes depend on the fault plan; this takes one
    // such stage's outcome.
    const auto recovered = [&](const char* stage, taskgraph::Recovered rec) {
      run.tg.count_run(stage);
      run.attempts = std::max(run.attempts, rec.retry.attempts);
      if (!rec.retry.ok) {
        throw std::runtime_error(std::string(stage) + " recovery failed: " +
                                 rec.retry.failure);
      }
      return ArtifactCache::Value(
          std::make_shared<const std::vector<std::uint8_t>>(
              std::move(rec.bytes)));
    };
    // Stages run in order; past the deadline, checked before each, none
    // runs.
    const auto due = [&](bool wanted) {
      if (!wanted || run.status == "deadline") return false;
      if (spec.deadline_ms >= 0 && elapsed_ms(start) >= spec.deadline_ms) {
        run.status = "deadline";
        return false;
      }
      return true;
    };
    const Algo algo = spec.algo;
    const planar::EmbeddedGraph& g = inst.graph;
    if (due(algo == Algo::kSeparator || algo == Algo::kPipeline)) {
      run.sep = sep_row_from_bytes(
          g, *(faulty ? recovered(taskgraph::kSeparatorTask,
                                  taskgraph::recover_separator(in))
                      : stages.separator()));
    }
    if (due(algo == Algo::kDfs || algo == Algo::kPipeline)) {
      run.dfs = dfs_row_from_bytes(
          g, *(faulty ? recovered(taskgraph::kDfsTask,
                                  taskgraph::recover_dfs(in))
                      : stages.dfs()));
    }
    if (due(algo == Algo::kBaselineSeparator)) {
      run.baseline = baseline_row_from_bytes(
          g, *(faulty ? recovered(taskgraph::kBaselineTask,
                                  taskgraph::recover_baseline(in))
                      : stages.baseline()));
    }

    if (store.valid()) store.get();  // rethrows a failed corpus store
    run.tg.merge(stages.counters());

    if (run.status == "ok") {
      const bool sep_bad = run.sep && !run.sep->verified;
      const bool dfs_bad = run.dfs && !run.dfs->verified;
      const bool base_bad = run.baseline && !run.baseline->verified;
      if (sep_bad || dfs_bad || base_bad) run.status = "check_failed";
    }
  } catch (const std::exception& e) {
    run.status = "error";
    run.error = e.what();
    run.tg = {};  // a failed job reports no counters
  }
  return run;
}

JobResult result_of(JobRun run) {
  JobResult res;
  res.status = run.status;
  res.error = run.error;
  res.attempts = run.attempts;
  res.taskgraph = std::move(run.tg);
  res.row = render_row(run);
  return res;
}

}  // namespace

taskgraph::JobInputs Instance::inputs() const {
  taskgraph::JobInputs in;
  in.graph = &graph;
  in.root = root;
  in.fingerprint = fingerprint;
  in.config_hash = taskgraph::cache_config_hash(root);
  in.family = family;
  return in;
}

Instance acquire_instance(const JobSpec& spec) {
  Instance inst;
  inst.family = spec.family;
  if (!spec.graph_path.empty()) {
    io::LoadedGraph loaded = io::load_graph(spec.graph_path);
    inst.graph = std::move(loaded.graph);
    if (!loaded.meta.family.empty()) inst.family = loaded.meta.family;
  } else {
    const auto fam = planar::family_from_name(spec.family);
    if (!fam) throw std::runtime_error("unknown family '" + spec.family + "'");
    planar::GeneratedGraph gg = planar::make_instance(*fam, spec.n, spec.seed);
    inst.graph = std::move(gg.graph);
    inst.root = gg.root_hint;
    inst.generated = true;
  }
  inst.fingerprint = core::topology_fingerprint(inst.graph);
  return inst;
}

std::future<void> store_instance(const Instance& inst,
                                 const std::string& corpus_dir) {
  if (!inst.generated || corpus_dir.empty()) return {};
  std::error_code ec;
  if (std::filesystem::exists(
          io::corpus_path(corpus_dir, inst.family, inst.fingerprint), ec)) {
    return {};
  }
  return std::async(std::launch::async, [&inst, corpus_dir] {
    io::store_in_corpus(corpus_dir, inst.family, inst.graph);
  });
}

JobResult run_single_job(const JobSpec& spec, std::uint64_t index,
                         const BatchOptions& opts, ArtifactCache& cache) {
  return result_of(execute_job(spec, index, opts, cache));
}

// ---------------------------------------------------------------- names --

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kSeparator:
      return "separator";
    case Algo::kDfs:
      return "dfs";
    case Algo::kPipeline:
      return "pipeline";
    case Algo::kBaselineSeparator:
      return "baseline-separator";
  }
  return "?";
}

std::optional<Algo> algo_from_name(const std::string& name) {
  if (name == "separator") return Algo::kSeparator;
  if (name == "dfs") return Algo::kDfs;
  if (name == "pipeline") return Algo::kPipeline;
  if (name == "baseline-separator") return Algo::kBaselineSeparator;
  return std::nullopt;
}

// -------------------------------------------------------------- parsing --

namespace {

[[noreturn]] void bad_line(int line_no, const std::string& what) {
  throw std::runtime_error("job file line " + std::to_string(line_no) + ": " +
                           what);
}

double parse_prob(int line_no, const std::string& key,
                  const std::string& value) {
  const std::optional<double> v = plansep::parse_double(value);
  if (!v || *v < 0 || *v > 1) {
    bad_line(line_no, "--" + key + " wants a probability in [0,1], got '" +
                          value + "'");
  }
  return *v;
}

long long parse_int(int line_no, const std::string& key,
                    const std::string& value) {
  const std::optional<long long> v = plansep::parse_int(value);
  if (!v) {
    bad_line(line_no, "--" + key + " wants an integer, got '" + value + "'");
  }
  return *v;
}

std::uint64_t parse_u64(int line_no, const std::string& key,
                        const std::string& value) {
  const std::optional<std::uint64_t> v = plansep::parse_u64(value);
  if (!v) {
    bad_line(line_no, "--" + key + " wants an unsigned integer, got '" +
                          value + "'");
  }
  return *v;
}

}  // namespace

std::optional<JobSpec> parse_job_line(const std::string& text, int line_no) {
  std::istringstream in(text);
  std::string token;
  JobSpec spec;
  spec.line = line_no;
  bool any = false;
  while (in >> token) {
    if (token[0] == '#') break;  // trailing comment
    any = true;
    if (token.rfind("--", 0) != 0) {
      bad_line(line_no, "expected --key=value, got '" + token + "'");
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      bad_line(line_no, "flag '" + token + "' lacks =value");
    }
    const std::string key = token.substr(2, eq - 2);
    const std::string value = token.substr(eq + 1);
    if (key == "family") {
      spec.family = value;
    } else if (key == "n") {
      const long long n = parse_int(line_no, key, value);
      if (n < 1 || n > std::numeric_limits<int>::max()) {
        bad_line(line_no, "--n wants a node count in [1, " +
                              std::to_string(std::numeric_limits<int>::max()) +
                              "], got '" + value + "'");
      }
      spec.n = static_cast<int>(n);
    } else if (key == "seed") {
      spec.seed = parse_u64(line_no, key, value);
    } else if (key == "algo") {
      const auto a = algo_from_name(value);
      if (!a) bad_line(line_no, "unknown algo '" + value + "'");
      spec.algo = *a;
    } else if (key == "deadline-ms") {
      spec.deadline_ms = parse_int(line_no, key, value);
    } else if (key == "graph") {
      spec.graph_path = value;
    } else if (key == "drop") {
      spec.faults.drop_prob = parse_prob(line_no, key, value);
    } else if (key == "dup") {
      spec.faults.duplicate_prob = parse_prob(line_no, key, value);
    } else if (key == "stall") {
      spec.faults.stall_prob = parse_prob(line_no, key, value);
    } else if (key == "reorder") {
      spec.faults.reorder_prob = parse_prob(line_no, key, value);
    } else if (key == "crash") {
      spec.faults.crash_prob = parse_prob(line_no, key, value);
    } else if (key == "outage") {
      spec.faults.edge_outage_prob = parse_prob(line_no, key, value);
    } else if (key == "fault-seed") {
      spec.fault_seed = parse_u64(line_no, key, value);
    } else {
      bad_line(line_no, "unknown flag --" + key);
    }
  }
  if (!any) return std::nullopt;
  return spec;
}

std::vector<JobSpec> parse_job_file(std::istream& in) {
  std::vector<JobSpec> jobs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (auto spec = parse_job_line(line, line_no)) {
      jobs.push_back(std::move(*spec));
    }
  }
  return jobs;
}

}  // namespace plansep::serve
