// The job stages (src/taskgraph/): one tree lookup and one engine per
// computed artifact, counters that do not depend on which job leads a
// flight, warm artifacts that never touch the stages below them,
// leaf-keyed indexes over a shared tree — and the acceptance properties
// the serving layer rides on: cross-job spanning-tree sharing
// (counter-asserted), rows whose artifacts equal the core library's, clean
// and under faults, across thread counts and cache temperatures, fault
// rows pinned to golden bytes, and stored bytes that do not depend on job
// order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/level_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "core/plansep.hpp"
#include "faults/controller.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "taskgraph/pipeline.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- stages ----

// A real instance, acquired the way a job acquires it.
serve::Instance stage_instance() {
  serve::JobSpec spec;
  spec.family = "triangulation";
  spec.n = 80;
  spec.seed = 11;
  return serve::acquire_instance(spec);
}

// A pipeline job's separator and DFS computes each look the spanning tree
// up and build their own engine from its bytes: the tree is built once
// and served once, the engine built twice; three cache entries.
TEST(TaskGraphStages, PipelineJobBuildsOneEnginePerComputedArtifact) {
  const serve::Instance inst = stage_instance();
  serve::ResultCache cache({1 << 22, ""});
  taskgraph::Stages stages(inst.inputs(), cache);
  stages.separator();
  stages.dfs();
  const taskgraph::TaskGraphCounters& c = stages.counters();
  EXPECT_EQ(c.tasks_run, 5);
  EXPECT_EQ(c.cache_served, 1);
  EXPECT_EQ(c.runs.at(taskgraph::kSpanningTreeTask), 1);
  EXPECT_EQ(c.runs.at(taskgraph::kEngineTask), 2);
  EXPECT_EQ(c.runs.at(taskgraph::kSeparatorTask), 1);
  EXPECT_EQ(c.runs.at(taskgraph::kDfsTask), 1);
  EXPECT_EQ(cache.counters().misses, 3);
}

// Forwards to a shared cache. Its "dfs@v1" lookups first wait for
// `hold`, and its "dfs@v1" computes first fulfil `started`.
class DfsGate : public serve::ArtifactCache {
 public:
  explicit DfsGate(serve::ArtifactCache& inner) : inner_(inner) {}
  std::shared_future<void> hold;
  std::promise<void>* started = nullptr;

  Value get_or_compute(const serve::CacheKey& key,
                       const Compute& compute) override {
    if (key.algorithm != "dfs@v1") return inner_.get_or_compute(key, compute);
    if (hold.valid()) hold.wait();
    return inner_.get_or_compute(key, [&] {
      if (started != nullptr) started->set_value();
      return compute();
    });
  }
  serve::CacheCounters counters() const override { return inner_.counters(); }
  std::size_t inflight_flights() const override {
    return inner_.inflight_flights();
  }

 private:
  serve::ArtifactCache& inner_;
};

// Two pipeline jobs on one fingerprint, forced to interleave: job B leads
// the DFS flight while job A's DFS lookup waits, so A is served B's DFS.
// Summed, they count exactly what a serial run of A then B counts, cache
// counters included.
TEST(TaskGraphStages, InterleavedPipelineJobsCountLikeASerialRun) {
  const serve::Instance inst = stage_instance();

  serve::ResultCache serial_cache({1 << 22, ""});
  taskgraph::TaskGraphCounters serial;
  for (int job = 0; job < 2; ++job) {
    taskgraph::Stages stages(inst.inputs(), serial_cache);
    stages.separator();
    stages.dfs();
    serial.merge(stages.counters());
  }

  serve::ResultCache cache({1 << 22, ""});
  std::promise<void> b_dfs_started;
  DfsGate gate_a(cache), gate_b(cache);
  gate_a.hold = b_dfs_started.get_future().share();
  gate_b.started = &b_dfs_started;
  taskgraph::Stages a(inst.inputs(), gate_a), b(inst.inputs(), gate_b);
  const serve::ArtifactCache::Value a_sep = a.separator();
  serve::ArtifactCache::Value a_dfs;
  std::thread a_rest([&] { a_dfs = a.dfs(); });
  EXPECT_EQ(*b.separator(), *a_sep);
  const serve::ArtifactCache::Value b_dfs = b.dfs();
  a_rest.join();
  EXPECT_EQ(*a_dfs, *b_dfs);
  EXPECT_EQ(a.counters().runs.count(taskgraph::kDfsTask), 0u);

  taskgraph::TaskGraphCounters interleaved = a.counters();
  interleaved.merge(b.counters());
  EXPECT_EQ(interleaved, serial);
  EXPECT_EQ(cache.counters(), serial_cache.counters());
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
      "--drop=0.02 --fault-seed=8\n"
      "--family=random_planar --n=60 --seed=8 --algo=baseline-separator "
      "--drop=0.02 --fault-seed=6\n");  // the baseline retries its wave
  return serve::parse_job_file(file);
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
// cache that served the row), the fault stages under an identically
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
                    io::assemble_single(io::SectionId::kSeparator,
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
                    io::assemble_single(io::SectionId::kDfsTree,
                                        io::encode_dfs(da)))
              << row;
        }
        if (spec.algo == serve::Algo::kBaselineSeparator) {
          EXPECT_EQ(peek(taskgraph::kLevelSeparatorArtifactId),
                    io::assemble_single(io::SectionId::kLevelSeparator,
                                        io::encode_level_separator(
                                            {baselines::bfs_level_separator(
                                                g, inst.root)})))
              << row;
        }
        continue;
      }
      // Fault jobs are never cached: replay the fault stages in stage
      // order under the job's controller, decode the bytes they return
      // and compare the row's numbers.
      faults::FaultController ctl(spec.faults, spec.fault_seed);
      faults::ScopedFaultInjection inject(ctl);
      const taskgraph::JobInputs in = inst.inputs();
      int attempts = 1;
      if (sep) {
        const taskgraph::Recovered rec = taskgraph::recover_separator(in);
        ASSERT_TRUE(rec.retry.ok) << row;
        attempts = std::max(attempts, rec.retry.attempts);
        const io::SeparatorArtifact sa = io::decode_separator(
            io::parse(rec.bytes).require(io::SectionId::kSeparator));
        const auto& part = sa.part;
        EXPECT_EQ(row_int(row, "separator", "phase"), part.phase);
        EXPECT_EQ(row_int(row, "separator", "path"),
                  static_cast<long long>(part.path.size()));
        EXPECT_EQ(row_int(row, "separator", "measured"), sa.cost.measured);
        EXPECT_EQ(row_int(row, "separator", "charged"), sa.cost.charged);
      }
      if (dfs) {
        const taskgraph::Recovered rec = taskgraph::recover_dfs(in);
        ASSERT_TRUE(rec.retry.ok) << row;
        attempts = std::max(attempts, rec.retry.attempts);
        const io::DfsArtifact da = io::decode_dfs(
            io::parse(rec.bytes).require(io::SectionId::kDfsTree));
        EXPECT_EQ(row_int(row, "dfs", "phases"), da.phases);
        EXPECT_EQ(row_int(row, "dfs", "measured"), da.cost.measured);
        EXPECT_EQ(row_int(row, "dfs", "charged"), da.cost.charged);
      }
      if (spec.algo == serve::Algo::kBaselineSeparator) {
        // The level search retries through the same loop.
        const taskgraph::Recovered rec = taskgraph::recover_baseline(in);
        ASSERT_TRUE(rec.retry.ok) << row;
        attempts = std::max(attempts, rec.retry.attempts);
        const baselines::LevelSeparatorResult res =
            io::decode_level_separator(
                io::parse(rec.bytes).require(io::SectionId::kLevelSeparator))
                .result;
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

// Fault rows pinned to literal bytes, at threads 1 and 4: the fault
// branch of RowsMatchLibraryReference replays the very stages a fault job
// calls, so it cannot see a change in them. Per algorithm, one plan is
// survived on the first attempt, one recovers after retries, and one
// fails all four attempts (the pipeline's in its DFS stage, after its
// separator recovered). Error texts name a check's source file but no
// line.
TEST(TaskGraphParity, FaultRowsMatchGolden) {
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"--family=grid --n=40 --seed=2 --algo=separator --drop=0.02 "
       "--fault-seed=2",
       R"({"job":0,"family":"grid","algo":"separator","seed":2,)"
       R"("faults":true,"n":36,"edges":60,"fingerprint":"43e895b792ad4ed9",)"
       R"("status":"ok","attempts":1,"separator":{"phase":33,"path":12,)"
       R"("balance":0.666667,"components":1,"verified":true,"measured":1090,)"
       R"("charged":626}})"},
      {"--family=outerplanar --n=40 --seed=3 --algo=separator "
       "--drop=0.015 --dup=0.05 --stall=0.05 --reorder=0.5 "
       "--crash=0.025 --outage=0.025 --fault-seed=2",
       R"({"job":1,"family":"outerplanar","algo":"separator","seed":3,)"
       R"("faults":true,"n":40,"edges":50,"fingerprint":"b08a7a47475fe0b6",)"
       R"("status":"ok","attempts":4,"separator":{"phase":33,"path":40,)"
       R"("balance":0,"components":0,"verified":true,"measured":1980,)"
       R"("charged":1279}})"},
      {"--family=grid --n=400 --seed=3 --algo=separator --crash=0.05 "
       "--fault-seed=1",
       R"({"job":2,"family":"grid","algo":"separator","seed":3,)"
       R"("faults":true,"n":400,"edges":760,)"
       R"("fingerprint":"49fea0d544abe8b2","status":"error","attempts":4,)"
       R"("error":"separator recovery failed: separator attempt threw: )"
       R"(PLANSEP_CHECK failed: (!inbox.empty()) at )"
       R"(src/congest/bfs_tree.cpp"})"},
      {"--family=grid --n=40 --seed=1 --algo=dfs --dup=0.1 "
       "--fault-seed=4",
       R"({"job":3,"family":"grid","algo":"dfs","seed":1,"faults":true,)"
       R"("n":36,"edges":60,"fingerprint":"43e895b792ad4ed9","status":"ok",)"
       R"("attempts":1,"dfs":{"phases":3,"depth":25,"verified":true,)"
       R"("measured":3553,"charged":2831}})"},
      {"--family=cycle --n=40 --seed=1 --algo=dfs --crash=0.05 "
       "--fault-seed=3",
       R"({"job":4,"family":"cycle","algo":"dfs","seed":1,"faults":true,)"
       R"("n":40,"edges":40,"fingerprint":"cef9ce8697466405","status":"ok",)"
       R"("attempts":2,"dfs":{"phases":5,"depth":39,"verified":true,)"
       R"("measured":8037,"charged":7269}})"},
      {"--family=grid --n=40 --seed=7 --algo=dfs --drop=1 --fault-seed=5",
       R"({"job":5,"family":"grid","algo":"dfs","seed":7,"faults":true,)"
       R"("n":36,"edges":60,"fingerprint":"43e895b792ad4ed9",)"
       R"("status":"error","attempts":4,"error":"dfs recovery failed: dfs )"
       R"(attempt threw: PLANSEP_CHECK failed: (d >= 0) at )"
       R"(src/shortcuts/partwise.cpp — graph must be connected"})"},
      {"--family=grid --n=40 --seed=5 --algo=pipeline --drop=0.02 "
       "--fault-seed=6",
       R"({"job":6,"family":"grid","algo":"pipeline","seed":5,"faults":true,)"
       R"("n":36,"edges":60,"fingerprint":"43e895b792ad4ed9","status":"ok",)"
       R"("attempts":1,"separator":{"phase":33,"path":12,"balance":0.666667,)"
       R"("components":1,"verified":true,"measured":1090,"charged":626},)"
       R"("dfs":{"phases":3,"depth":25,"verified":true,"measured":3553,)"
       R"("charged":2831}})"},
      {"--family=random_planar --n=40 --seed=1 --algo=pipeline "
       "--drop=0.015 --dup=0.05 --stall=0.05 --reorder=0.5 "
       "--crash=0.025 --outage=0.025 --fault-seed=2",
       R"({"job":7,"family":"random_planar","algo":"pipeline","seed":1,)"
       R"("faults":true,"n":40,"edges":60,"fingerprint":"cdb86a2a70e00b29",)"
       R"("status":"ok","attempts":3,"separator":{"phase":53,"path":3,)"
       R"("balance":0.5,"components":5,"verified":true,"measured":609,)"
       R"("charged":343},"dfs":{"phases":4,"depth":8,"verified":true,)"
       R"("measured":1699,"charged":1307}})"},
      {"--family=cycle --n=40 --seed=3 --algo=pipeline --outage=0.05 "
       "--fault-seed=1",
       R"({"job":8,"family":"cycle","algo":"pipeline","seed":3,)"
       R"("faults":true,"n":40,"edges":40,"fingerprint":"cef9ce8697466405",)"
       R"("status":"error","attempts":4,"separator":{"phase":33,"path":40,)"
       R"("balance":0,"components":0,"verified":true,"measured":2369,)"
       R"("charged":1883},"error":"dfs recovery failed: dfs attempt threw: )"
       R"(PLANSEP_CHECK failed: (d >= 0) at src/shortcuts/partwise.cpp — )"
       R"(graph must be connected"})"},
      {"--family=grid --n=40 --seed=4 --algo=baseline-separator "
       "--stall=0.1 --fault-seed=1",
       R"({"job":9,"family":"grid","algo":"baseline-separator","seed":4,)"
       R"("faults":true,"n":36,"edges":60,"fingerprint":"43e895b792ad4ed9",)"
       R"("status":"ok","attempts":1,"baseline":{"found":true,"size":5,)"
       R"("balance":0.583333,"levels":1,"verified":true}})"},
      {"--family=random_planar --n=40 --seed=5 "
       "--algo=baseline-separator --outage=0.05 --fault-seed=4",
       R"({"job":10,"family":"random_planar","algo":"baseline-separator",)"
       R"("seed":5,"faults":true,"n":40,"edges":60,)"
       R"("fingerprint":"ea4a2c618a462e76","status":"ok","attempts":3,)"
       R"("baseline":{"found":true,"size":9,"balance":0.325,"levels":1,)"
       R"("verified":true}})"},
      {"--family=grid --n=40 --seed=1 --algo=baseline-separator "
       "--drop=1 --fault-seed=1",
       R"({"job":11,"family":"grid","algo":"baseline-separator","seed":1,)"
       R"("faults":true,"n":36,"edges":60,"fingerprint":"43e895b792ad4ed9",)"
       R"("status":"error","attempts":4,"error":"baseline recovery failed: )"
       R"(baseline attempt threw: PLANSEP_CHECK failed: (d >= 0 && d <= h) )"
       R"(at src/baselines/level_separator.cpp — BFS wave did not reach )"
       R"(every node"})"},
  };
  std::string file;
  std::string expected;
  for (const auto& [line, row] : golden) {
    file += line + "\n";
    expected += row + "\n";
  }
  for (const int threads : {1, 4}) {
    std::istringstream in(file);
    serve::BatchOptions opts;
    opts.threads = threads;
    serve::ResultCache cache({1 << 22, ""});
    const auto rep =
        serve::run_batch(serve::parse_job_file(in), opts, cache, nullptr);
    EXPECT_EQ(joined_rows(rep), expected) << "threads=" << threads;
  }
}

// A fault plan can break the baseline's BFS wave before it reaches every
// node. The level search retries under fresh faults, like the separator
// and DFS: the first plan breaks two waves and recovers on the third. A
// plan that breaks every attempt makes the job a typed error row, and the
// batch carries on.
TEST(TaskGraphParity, BrokenBaselineWaveIsAnErrorRow) {
  std::istringstream file(
      "--family=random_planar --n=60 --seed=8 --algo=baseline-separator "
      "--drop=0.02 --fault-seed=6\n"
      "--family=random_planar --n=60 --seed=8 --algo=baseline-separator "
      "--drop=0.1 --fault-seed=6\n"
      "--family=grid --n=49 --seed=1 --algo=baseline-separator\n");
  serve::ResultCache cache({1 << 22, ""});
  const auto rep =
      serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr);
  ASSERT_EQ(rep.jobs, 3);
  EXPECT_EQ(rep.results[0].status, "ok") << rep.results[0].error;
  EXPECT_EQ(rep.results[0].attempts, 3);
  EXPECT_EQ(rep.results[1].status, "error");
  EXPECT_EQ(rep.results[1].attempts, 4);
  EXPECT_NE(rep.results[1].error.find("baseline recovery failed"),
            std::string::npos)
      << rep.results[1].error;
  EXPECT_NE(rep.results[1].error.find("BFS wave did not reach every node"),
            std::string::npos)
      << rep.results[1].error;
  EXPECT_EQ(rep.results[2].status, "ok");
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

// The verify stage stands between a tampered disk tier and a served row:
// a stage artifact edited on disk — a BFS tree stored as the DFS tree, a
// parent id out of range, a separator path with a repeated or
// out-of-range node, a baseline with a duplicate node or an edited stored
// balance — is served, fails verification, and yields verified:false
// under status check_failed, never a crash.
TEST(TaskGraphParity, EditedStageArtifactsOnDiskFailVerification) {
  const planar::EmbeddedGraph g =
      planar::make_instance(planar::Family::kGrid, 100, 1).graph;
  const planar::NodeId n = g.num_nodes();
  using Bytes = std::vector<std::uint8_t>;
  const auto dfs_edit = [](std::function<void(io::DfsArtifact&)> f) {
    return [f](Bytes& b) {
      io::DfsArtifact d = io::decode_dfs(b);
      f(d);
      b = io::encode_dfs(d);
    };
  };
  const auto sep_edit = [](std::function<void(io::SeparatorArtifact&)> f) {
    return [f](Bytes& b) {
      io::SeparatorArtifact s = io::decode_separator(b);
      f(s);
      b = io::encode_separator(s);
    };
  };
  const auto base_edit =
      [](std::function<void(baselines::LevelSeparatorResult&)> f) {
        return [f](Bytes& b) {
          io::LevelSeparatorArtifact l = io::decode_level_separator(b);
          ASSERT_TRUE(l.result.found);
          f(l.result);
          b = io::encode_level_separator(l);
        };
      };
  struct Case {
    const char* name;
    const char* algo;
    io::SectionId section;
    std::function<void(Bytes&)> edit;
  };
  const std::vector<Case> cases{
      {"bfs tree as dfs", "dfs", io::SectionId::kDfsTree,
       dfs_edit([&](io::DfsArtifact& d) {
         const congest::BfsResult bfs = congest::distributed_bfs(g, d.root);
         for (planar::NodeId v = 0; v < n; ++v) {
           const auto i = static_cast<std::size_t>(v);
           const planar::DartId up = bfs.parent_dart[i];
           d.parent[i] = up == planar::kNoDart ? planar::kNoNode : g.head(up);
         }
         d.depth = bfs.depth;
       })},
      {"dfs parent out of range", "dfs", io::SectionId::kDfsTree,
       dfs_edit([&](io::DfsArtifact& d) {
         d.parent[static_cast<std::size_t>((d.root + 1) % n)] = n + 7;
       })},
      {"separator repeats a node", "separator", io::SectionId::kSeparator,
       sep_edit([](io::SeparatorArtifact& s) {
         s.part.path.push_back(s.part.path.front());
       })},
      {"separator node out of range", "separator", io::SectionId::kSeparator,
       sep_edit([&](io::SeparatorArtifact& s) { s.part.path.back() = n; })},
      {"baseline duplicate node", "baseline-separator",
       io::SectionId::kLevelSeparator,
       base_edit([](baselines::LevelSeparatorResult& r) {
         r.separator.push_back(r.separator.front());
       })},
      {"baseline balance edited", "baseline-separator",
       io::SectionId::kLevelSeparator,
       base_edit([](baselines::LevelSeparatorResult& r) {
         r.balance = std::nextafter(r.balance, 1.0);
       })}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string job =
        std::string("--family=grid --n=100 --seed=1 --algo=") + c.algo + "\n";
    ScratchDir disk("edited_stage");
    {
      std::istringstream file(job);
      serve::ResultCache cache({1 << 22, disk.path()});
      ASSERT_EQ(
          serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr).ok,
          1);
    }
    int edited = 0;
    for (const auto& entry : fs::directory_iterator(disk.path())) {
      const std::string path = entry.path().string();
      io::Artifact a = io::parse(io::read_file(path));
      if (a.sections.size() != 1 || a.sections[0].id != c.section) continue;
      c.edit(a.sections[0].bytes);
      io::write_file(path, io::assemble(a));
      ++edited;
    }
    ASSERT_EQ(edited, 1);
    std::istringstream file(job);
    serve::ResultCache cache({1 << 22, disk.path()});
    const auto rep =
        serve::run_batch(serve::parse_job_file(file), {}, cache, nullptr);
    ASSERT_EQ(rep.results.size(), 1u);
    const serve::JobResult& r = rep.results[0];
    EXPECT_EQ(r.status, "check_failed") << r.error;
    EXPECT_NE(r.row.find("\"verified\":false"), std::string::npos) << r.row;
    EXPECT_EQ(rep.check_failed, 1);
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
