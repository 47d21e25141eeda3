// The job stages (src/taskgraph/): one spanning tree and one engine per
// job, warm artifacts that never touch the stages below them, leaf-keyed
// indexes over a shared tree — and the acceptance properties the serving
// layer rides on: cross-job spanning-tree sharing (counter-asserted), rows
// whose artifacts equal the core library's, clean and under faults,
// across thread counts and cache temperatures, and stored bytes that do
// not depend on job order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/level_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "core/plansep.hpp"
#include "faults/controller.hpp"
#include "faults/recovery.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "taskgraph/pipeline.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("plansep_taskgraph_") + tag + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                .string();
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------- stages ----

// A real instance, acquired the way a job acquires it.
serve::Instance stage_instance() {
  serve::JobSpec spec;
  spec.family = "triangulation";
  spec.n = 80;
  spec.seed = 11;
  return serve::acquire_instance(spec);
}

// A pipeline job's separator and DFS share one spanning tree and one
// engine: four runs, three cache entries.
TEST(TaskGraphStages, PipelineJobBuildsTreeAndEngineOnce) {
  const serve::Instance inst = stage_instance();
  serve::ResultCache cache({1 << 22, ""});
  taskgraph::Stages stages(inst.inputs(), cache);
  stages.separator();
  stages.dfs();
  const taskgraph::TaskGraphCounters& c = stages.counters();
  EXPECT_EQ(c.tasks_run, 4);
  EXPECT_EQ(c.cache_served, 0);
  for (const char* stage :
       {taskgraph::kSpanningTreeTask, taskgraph::kEngineTask,
        taskgraph::kSeparatorTask, taskgraph::kDfsTask}) {
    EXPECT_EQ(c.runs.at(stage), 1) << stage;
  }
  EXPECT_EQ(cache.counters().misses, 3);
}

// The BFS-level baseline reads the spanning tree only.
TEST(TaskGraphStages, BaselineNeverBuildsTheEngine) {
  const serve::Instance inst = stage_instance();
  serve::ResultCache cache({1 << 22, ""});
  taskgraph::Stages stages(inst.inputs(), cache);
  EXPECT_FALSE(stages.baseline()->empty());
  const taskgraph::TaskGraphCounters& c = stages.counters();
  EXPECT_EQ(c.tasks_run, 2);
  EXPECT_EQ(c.runs.at(taskgraph::kSpanningTreeTask), 1);
  EXPECT_EQ(c.runs.at(taskgraph::kBaselineTask), 1);
  EXPECT_EQ(c.runs.count(taskgraph::kEngineTask), 0u);
}

// A warm separator is one cache hit: the stages below it are never
// touched.
TEST(TaskGraphStages, WarmSeparatorRunsNothing) {
  const serve::Instance inst = stage_instance();
  serve::ResultCache cache({1 << 22, ""});
  serve::ArtifactCache::Value cold;
  {
    taskgraph::Stages stages(inst.inputs(), cache);
    cold = stages.separator();
  }
  const serve::CacheCounters before = cache.counters();
  taskgraph::Stages stages(inst.inputs(), cache);
  EXPECT_EQ(*stages.separator(), *cold);
  EXPECT_EQ(stages.counters().tasks_run, 0);
  EXPECT_EQ(stages.counters().cache_served, 1);
  EXPECT_TRUE(stages.counters().runs.empty());
  const serve::CacheCounters delta = cache.counters() - before;
  EXPECT_EQ(delta.hits, 1);
  EXPECT_EQ(delta.misses, 0);
}

// The index keys on its leaf size and the tree does not: two leaf sizes
// build two indexes over one tree.
TEST(TaskGraphStages, TwoLeafSizesBuildTwoIndexesOverOneTree) {
  const serve::Instance inst = stage_instance();
  serve::ResultCache cache({1 << 22, ""});
  taskgraph::JobInputs in = inst.inputs();
  for (const int leaf : {8, 16}) {
    in.leaf_size = leaf;
    taskgraph::Stages stages(in, cache);
    stages.query_index();
    const taskgraph::TaskGraphCounters& c = stages.counters();
    for (const char* stage : {taskgraph::kEngineTask,
                              taskgraph::kHierarchyTask,
                              taskgraph::kQueryIndexTask}) {
      EXPECT_EQ(c.runs.at(stage), 1) << stage << " leaf " << leaf;
    }
    EXPECT_NE(cache.peek(query::index_cache_key(inst.fingerprint, inst.root,
                                                leaf)),
              nullptr);
  }
  EXPECT_EQ(cache.counters().misses, 3);
  EXPECT_EQ(cache.counters().hits, 1);  // the second index's tree
}

TEST(TaskGraphCounters, MergeAccumulatesComponentWise) {
  taskgraph::TaskGraphCounters a, b;
  a.tasks_run = 2;
  a.runs["x"] = 2;
  b.tasks_run = 3;
  b.cache_served = 1;
  b.runs["x"] = 1;
  b.runs["y"] = 4;
  a.merge(b);
  EXPECT_EQ(a.tasks_run, 5);
  EXPECT_EQ(a.cache_served, 1);
  EXPECT_EQ(a.runs.at("x"), 3);
  EXPECT_EQ(a.runs.at("y"), 4);
}

// ----------------------------------------------- cross-job sharing ----

std::string joined_rows(const serve::BatchReport& rep) {
  std::string out;
  for (const auto& r : rep.results) {
    out += r.row;
    out += '\n';
  }
  return out;
}

// The deterministic separator and the BFS-level baseline on the same
// fingerprint: the spanning tree is built exactly once, shared through
// the cache, and the outcome is byte-identical at any thread count and
// cache temperature.
std::vector<serve::JobSpec> sharing_jobs() {
  std::istringstream file(
      "--family=triangulation --n=80 --seed=11 --algo=separator\n"
      "--family=triangulation --n=80 --seed=11 --algo=baseline-separator\n");
  return serve::parse_job_file(file);
}

TEST(TaskGraphSharing, SpanningTreeBuiltOnceAcrossTwoAlgorithms) {
  serve::BatchOptions opts;
  opts.threads = 2;  // both jobs genuinely concurrent
  serve::ResultCache cache({1 << 22, ""});
  const auto rep = serve::run_batch(sharing_jobs(), opts, cache, nullptr);
  ASSERT_EQ(rep.ok, 2);
  // Counter-asserted sharing: one spanning-tree body run serves both the
  // deterministic separator and the baseline.
  EXPECT_EQ(rep.taskgraph.runs.at(taskgraph::kSpanningTreeTask), 1);
  EXPECT_EQ(rep.taskgraph.runs.at(taskgraph::kSeparatorTask), 1);
  EXPECT_EQ(rep.taskgraph.runs.at(taskgraph::kBaselineTask), 1);
  // The second consumer was served from the cache (hit or flight join).
  EXPECT_GT(rep.cache.hits, 0);
  EXPECT_NE(rep.results[1].row.find("\"baseline\""), std::string::npos);
}

TEST(TaskGraphSharing, ByteIdenticalAcrossThreadCountsAndTemperature) {
  std::string reference;
  for (const int threads : {1, 4, 8}) {
    serve::BatchOptions opts;
    opts.threads = threads;
    serve::ResultCache cache({1 << 22, ""});
    const auto cold = serve::run_batch(sharing_jobs(), opts, cache, nullptr);
    ASSERT_EQ(cold.ok, 2) << "threads=" << threads;
    // This pair runs each stage once whoever leads the tree's flight.
    EXPECT_EQ(cold.taskgraph.tasks_run, 4) << "threads=" << threads;
    const auto warm = serve::run_batch(sharing_jobs(), opts, cache, nullptr);
    EXPECT_EQ(joined_rows(cold), joined_rows(warm));
    EXPECT_EQ(warm.taskgraph.tasks_run, 0);
    EXPECT_GT(warm.taskgraph.cache_served, 0);
    if (reference.empty()) {
      reference = joined_rows(cold);
    } else {
      EXPECT_EQ(reference, joined_rows(cold)) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- library reference ----

std::vector<serve::JobSpec> parity_jobs() {
  std::istringstream file(
      "--family=grid --n=49 --seed=1 --algo=pipeline\n"
      "--family=triangulation --n=60 --seed=2 --algo=separator\n"
      "--family=cycle --n=24 --seed=3 --algo=dfs\n"
      "--family=triangulation --n=60 --seed=2 --algo=baseline-separator\n"
      "--family=outerplanar --n=40 --seed=4 --algo=pipeline\n"
      "--family=triangulation --n=80 --seed=5 --algo=separator --drop=0.02 "
      "--fault-seed=3\n"
      "--family=grid --n=64 --seed=6 --algo=dfs --dup=0.05 --fault-seed=4\n"
      "--family=grid --n=100 --seed=11 --algo=pipeline --drop=0.15 "
      "--fault-seed=3\n"
      "--family=random_planar --n=120 --seed=10 --algo=baseline-separator "
      "--drop=0.02 --fault-seed=8\n");
  return serve::parse_job_file(file);
}

std::vector<std::uint8_t> single_section(io::SectionId id,
                                         std::vector<std::uint8_t> payload) {
  io::Artifact a;
  a.add(id, std::move(payload));
  return io::assemble(a);
}

// The integer after "key": in a row — inside the `section` object when
// one is named.
long long row_int(const std::string& row, const std::string& section,
                  const std::string& key) {
  std::size_t at = 0;
  if (!section.empty()) at = row.find("\"" + section + "\":{");
  at = row.find("\"" + key + "\":", at);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << row;
  return at == std::string::npos ? -1
                                 : std::stoll(row.substr(at + key.size() + 3));
}

// The acceptance criterion of the one execution path: the artifact behind
// every row equals the core library's — compute_cycle_separator,
// compute_dfs_tree and bfs_level_separator for clean jobs (peeked from the
// cache that served the row), the recovery drivers under an identically
// seeded FaultController for fault jobs — at thread counts {1, 4, 8};
// rows are byte-identical across those counts, and the corpus holds
// exactly the bytes a direct store writes.
TEST(TaskGraphParity, RowsMatchLibraryReference) {
  const std::vector<serve::JobSpec> jobs = parity_jobs();
  ScratchDir ref_dir("ref");
  std::string reference_rows;
  for (const int threads : {1, 4, 8}) {
    ScratchDir dir("run");
    serve::BatchOptions opts;
    opts.threads = threads;
    opts.corpus_dir = dir.path();
    serve::ResultCache cache({1 << 22, ""});
    const auto rep = serve::run_batch(jobs, opts, cache, nullptr);
    ASSERT_EQ(rep.ok, rep.jobs) << "threads=" << threads;
    EXPECT_GT(rep.taskgraph.tasks_run, 0);
    if (reference_rows.empty()) reference_rows = joined_rows(rep);
    EXPECT_EQ(reference_rows, joined_rows(rep)) << "threads=" << threads;

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const serve::JobSpec& spec = jobs[j];
      const std::string& row = rep.results[j].row;
      const serve::Instance inst = serve::acquire_instance(spec);
      const planar::EmbeddedGraph& g = inst.graph;
      const bool sep = spec.algo == serve::Algo::kSeparator ||
                       spec.algo == serve::Algo::kPipeline;
      const bool dfs = spec.algo == serve::Algo::kDfs ||
                       spec.algo == serve::Algo::kPipeline;
      if (threads == 1) io::store_in_corpus(ref_dir.path(), spec.family, g);
      if (!spec.faults.enabled()) {
        const auto peek = [&](const char* id) {
          const auto bytes = cache.peek(
              {inst.fingerprint, id, taskgraph::cache_config_hash(inst.root)});
          return bytes ? *bytes : std::vector<std::uint8_t>{};
        };
        if (sep) {
          const SeparatorRun run = compute_cycle_separator(g, inst.root);
          EXPECT_EQ(peek("separator@v1"),
                    single_section(io::SectionId::kSeparator,
                                   io::encode_separator(
                                       {run.separator, run.cost})))
              << row;
        }
        if (dfs) {
          const DfsRun run = compute_dfs_tree(g, inst.root);
          io::DfsArtifact da = io::dfs_artifact_from_tree(run.build.tree);
          da.phases = run.build.phases;
          da.cost = run.build.cost;
          EXPECT_EQ(peek("dfs@v1"),
                    single_section(io::SectionId::kDfsTree,
                                   io::encode_dfs(da)))
              << row;
        }
        if (spec.algo == serve::Algo::kBaselineSeparator) {
          EXPECT_EQ(peek(taskgraph::kLevelSeparatorArtifactId),
                    single_section(io::SectionId::kLevelSeparator,
                                   io::encode_level_separator(
                                       {baselines::bfs_level_separator(
                                           g, inst.root)})))
              << row;
        }
        continue;
      }
      // Fault jobs are never cached: replay the drivers in stage order
      // under the job's controller and compare the row's numbers.
      faults::FaultController ctl(spec.faults, spec.fault_seed);
      faults::ScopedFaultInjection inject(ctl);
      int attempts = 1;
      if (sep) {
        const faults::RecoveredSeparator rec =
            faults::compute_separator_with_recovery(g, inst.root);
        ASSERT_TRUE(rec.recovery.ok) << row;
        attempts = std::max(attempts, rec.recovery.attempts);
        const auto& part = rec.result->parts.at(0);
        EXPECT_EQ(row_int(row, "separator", "phase"), part.phase);
        EXPECT_EQ(row_int(row, "separator", "path"),
                  static_cast<long long>(part.path.size()));
        EXPECT_EQ(row_int(row, "separator", "measured"), rec.cost.measured);
        EXPECT_EQ(row_int(row, "separator", "charged"), rec.cost.charged);
      }
      if (dfs) {
        const faults::RecoveredDfs rec =
            faults::build_dfs_tree_with_recovery(g, inst.root);
        ASSERT_TRUE(rec.recovery.ok) << row;
        attempts = std::max(attempts, rec.recovery.attempts);
        EXPECT_EQ(row_int(row, "dfs", "phases"), rec.build->phases);
        EXPECT_EQ(row_int(row, "dfs", "measured"), rec.cost.measured);
        EXPECT_EQ(row_int(row, "dfs", "charged"), rec.cost.charged);
      }
      if (spec.algo == serve::Algo::kBaselineSeparator) {
        const baselines::LevelSeparatorResult res =
            baselines::bfs_level_separator(g, inst.root);
        EXPECT_EQ(row_int(row, "baseline", "size"),
                  static_cast<long long>(res.separator.size()));
        EXPECT_EQ(row_int(row, "baseline", "levels"), res.levels_used);
      }
      EXPECT_EQ(row_int(row, "", "attempts"), attempts) << row;
    }

    // The corpus store (serve::store_instance, beside every job) writes
    // the same bytes as a direct store of each instance.
    const auto ref_entries = io::list_corpus(ref_dir.path());
    const auto entries = io::list_corpus(dir.path());
    ASSERT_EQ(ref_entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(ref_entries[i].family, entries[i].family);
      EXPECT_EQ(ref_entries[i].fingerprint, entries[i].fingerprint);
      EXPECT_EQ(io::read_file(ref_entries[i].path),
                io::read_file(entries[i].path));
    }
  }
}

// A fault plan can break the baseline's BFS wave before it reaches every
// node. The level search has no recovery driver, so the job reports a
// typed error row and the batch carries on.
TEST(TaskGraphParity, BrokenBaselineWaveIsAnErrorRow) {
  std::istringstream file(
      "--family=random_planar --n=60 --seed=8 --algo=baseline-separator "
      "--drop=0.02 --fault-seed=6\n"
      "--family=grid --n=49 --seed=1 --algo=baseline-separator\n");
  serve::ResultCache cache({1 << 22, ""});
  const auto rep =
      serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr);
  ASSERT_EQ(rep.jobs, 2);
  EXPECT_EQ(rep.results[0].status, "error");
  EXPECT_NE(rep.results[0].error.find("BFS wave did not reach every node"),
            std::string::npos)
      << rep.results[0].error;
  EXPECT_EQ(rep.results[1].status, "ok");
}

// A spanning-tree artifact edited on disk, with its CRC recomputed so the
// container still verifies, is served from the disk tier to a fresh
// cache. The tree checks turn each job that adopts it into an error row
// instead of a read past the simulation's part lists or the tree's
// arrays.
TEST(TaskGraphParity, EditedSpanningTreeOnDiskIsAnErrorRow) {
  const std::vector<std::function<void(congest::BfsResult&)>> edits{
      [](congest::BfsResult& t) { t.depth[99] = 1; },
      [](congest::BfsResult& t) { t.parent_dart[55] = t.parent_dart[12]; },
      [](congest::BfsResult& t) {
        t.depth.resize(10);
        t.parent_dart.resize(10);
      }};
  for (const auto& edit : edits) {
    ScratchDir disk("edited_tree");
    {
      std::istringstream file(
          "--family=grid --n=100 --seed=1 --algo=baseline-separator\n");
      serve::ResultCache cache({1 << 22, disk.path()});
      ASSERT_EQ(
          serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr).ok,
          1);
    }
    // Keep only the tree, edited, so every job below must adopt it.
    int edited = 0;
    for (const auto& entry : fs::directory_iterator(disk.path())) {
      const std::string path = entry.path().string();
      io::Artifact a = io::parse(io::read_file(path));
      if (a.sections.size() != 1 ||
          a.sections[0].id != io::SectionId::kSpanningTree) {
        fs::remove(path);
        continue;
      }
      io::SpanningTreeArtifact t = io::decode_spanning_tree(a.sections[0].bytes);
      edit(t.bfs);
      a.sections[0].bytes = io::encode_spanning_tree(t);
      io::write_file(path, io::assemble(a));
      ++edited;
    }
    ASSERT_EQ(edited, 1);
    std::istringstream file(
        "--family=grid --n=100 --seed=1 --algo=separator\n"
        "--family=grid --n=100 --seed=1 --algo=dfs\n"
        "--family=grid --n=100 --seed=1 --algo=baseline-separator\n");
    serve::ResultCache cache({1 << 22, disk.path()});
    const auto rep =
        serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr);
    ASSERT_EQ(rep.jobs, 3);
    EXPECT_GT(rep.cache.disk_hits, 0);
    for (const auto& r : rep.results) {
      EXPECT_EQ(r.status, "error");
      EXPECT_NE(r.error.find("spanning tree"), std::string::npos) << r.error;
    }
  }
}

// ------------------------------------------------------------ provenance ----

// Grid ignores its seed, so grid jobs at seeds 7 and 6 share one
// fingerprint, and whichever runs first stores the corpus file and
// computes the index artifact. Neither carries a seed, so both orders
// leave the same bytes, and the corpus file equals a direct store.
TEST(TaskGraphProvenance, StoredBytesDoNotDependOnJobOrder) {
  struct Stored {
    std::vector<std::uint8_t> corpus;
    std::vector<std::uint8_t> index;
  };
  const auto run_in_order = [](std::vector<std::uint64_t> seeds,
                               const std::string& root) {
    std::vector<serve::JobSpec> jobs;
    for (const std::uint64_t seed : seeds) {
      serve::JobSpec spec;
      spec.family = "grid";
      spec.n = 64;
      spec.seed = seed;
      spec.algo = serve::Algo::kSeparator;
      jobs.push_back(spec);
    }
    serve::BatchOptions opts;
    opts.threads = 1;
    opts.corpus_dir = root;
    serve::ResultCache cache({1 << 22, ""});
    EXPECT_EQ(serve::run_batch(jobs, opts, cache, nullptr).ok, 2);
    for (const serve::JobSpec& spec : jobs) {
      query::QueryJob q;
      q.instance = spec;
      q.leaf_size = 8;
      q.pairs = {{0, 1}};
      EXPECT_EQ(query::run_query_job(q, opts, cache, nullptr).status, "ok");
    }
    const serve::Instance inst = serve::acquire_instance(jobs[0]);
    const auto index =
        cache.peek(query::index_cache_key(inst.fingerprint, inst.root, 8));
    const auto entries = io::list_corpus(root);
    Stored out;
    if (index) out.index = *index;
    if (entries.size() == 1) out.corpus = io::read_file(entries[0].path);
    return out;
  };
  ScratchDir seven_first("seven_first"), six_first("six_first"),
      direct("direct");
  const Stored a = run_in_order({7, 6}, seven_first.path());
  const Stored b = run_in_order({6, 7}, six_first.path());
  ASSERT_FALSE(a.corpus.empty());
  ASSERT_FALSE(a.index.empty());
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.index, b.index);
  serve::JobSpec grid;
  grid.family = "grid";
  grid.n = 64;
  const serve::Instance inst = serve::acquire_instance(grid);
  EXPECT_EQ(a.corpus, io::read_file(io::store_in_corpus(direct.path(), "grid",
                                                        inst.graph)));
}

// -------------------------------------------------- sub-artifact codecs ----

TEST(TaskGraphArtifacts, SpanningTreeCodecRoundTrips) {
  congest::BfsResult bfs;
  bfs.root = 2;
  bfs.parent_dart = {4, planar::kNoDart, 7};
  bfs.depth = {1, 2, 0};
  bfs.height = 2;
  bfs.rounds = 5;
  bfs.messages = 42;
  const auto bytes = io::encode_spanning_tree({bfs});
  const io::SpanningTreeArtifact back = io::decode_spanning_tree(bytes);
  EXPECT_EQ(back.bfs.root, bfs.root);
  EXPECT_EQ(back.bfs.parent_dart, bfs.parent_dart);
  EXPECT_EQ(back.bfs.depth, bfs.depth);
  EXPECT_EQ(back.bfs.height, bfs.height);
  EXPECT_EQ(back.bfs.rounds, bfs.rounds);
  EXPECT_EQ(back.bfs.messages, bfs.messages);
  // Structural guards: truncation and a hostile root are typed errors.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(io::decode_spanning_tree(truncated), io::FormatError);
  congest::BfsResult hostile = bfs;
  hostile.root = 99;
  EXPECT_THROW(io::decode_spanning_tree(io::encode_spanning_tree({hostile})),
               io::FormatError);
}

TEST(TaskGraphArtifacts, LevelSeparatorCodecRoundTrips) {
  baselines::LevelSeparatorResult res;
  res.found = true;
  res.separator = {3, 1, 4};
  res.balance = 0.5;
  res.levels_used = 2;
  const auto bytes = io::encode_level_separator({res});
  const io::LevelSeparatorArtifact back = io::decode_level_separator(bytes);
  EXPECT_EQ(back.result.found, res.found);
  EXPECT_EQ(back.result.separator, res.separator);
  EXPECT_EQ(back.result.balance, res.balance);
  EXPECT_EQ(back.result.levels_used, res.levels_used);
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(io::decode_level_separator(trailing), io::FormatError);
}

}  // namespace
}  // namespace plansep
