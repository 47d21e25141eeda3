#include "taskgraph/pipeline.hpp"

#include <utility>

#include "baselines/level_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "core/fingerprint.hpp"
#include "dfs/builder.hpp"
#include "dfs/validate.hpp"
#include "faults/recovery.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "obs/metrics.hpp"
#include "query/index.hpp"
#include "query/service.hpp"
#include "separator/engine.hpp"
#include "separator/hierarchy.hpp"
#include "separator/validate.hpp"
#include "shortcuts/partwise.hpp"
#include "util/check.hpp"

namespace plansep::taskgraph {

namespace {

congest::BfsResult decode_spanning_tree_bytes(
    const std::vector<std::uint8_t>& bytes) {
  return io::decode_spanning_tree(
             io::parse(bytes).require(io::SectionId::kSpanningTree))
      .bfs;
}

// One artifact compute's engine, built from the spanning tree's *bytes*
// (one bytes→value path), so cache-served and freshly computed trees
// drive identical computations. The engine keeps no state across
// aggregate calls, so each compute may build its own.
shortcuts::PartwiseEngine engine_from(const planar::EmbeddedGraph& g,
                                      const std::vector<std::uint8_t>& tree,
                                      TaskGraphCounters& counters) {
  shortcuts::PartwiseEngine eng(g, decode_spanning_tree_bytes(tree));
  counters.count_run(kEngineTask);
  return eng;
}

std::vector<std::uint8_t> separator_bytes(const separator::PartSeparator& part,
                                          const shortcuts::RoundCost& cost) {
  return io::assemble_single(io::SectionId::kSeparator,
                             io::encode_separator({part, cost}));
}

std::vector<std::uint8_t> dfs_bytes(const dfs::DfsBuildResult& build,
                                    const shortcuts::RoundCost& cost) {
  io::DfsArtifact da = io::dfs_artifact_from_tree(build.tree);
  da.phases = build.phases;
  da.cost = cost;
  return io::assemble_single(io::SectionId::kDfsTree, io::encode_dfs(da));
}

std::vector<std::uint8_t> level_separator_bytes(
    baselines::LevelSeparatorResult res) {
  return io::assemble_single(io::SectionId::kLevelSeparator,
                             io::encode_level_separator({std::move(res)}));
}

}  // namespace

void TaskGraphCounters::count_run(const char* stage) {
  ++tasks_run;
  ++runs[stage];
}

void TaskGraphCounters::merge(const TaskGraphCounters& o) {
  tasks_run += o.tasks_run;
  cache_served += o.cache_served;
  for (const auto& [name, n] : o.runs) runs[name] += n;
}

std::uint64_t cache_config_hash(planar::NodeId root, int leaf_size) {
  return core::mix_seed(0x726f6f7400000000ULL /* "root" */,
                        static_cast<std::uint64_t>(root),
                        static_cast<std::uint64_t>(leaf_size));
}

// ----------------------------------------------------------------- stages --

Stages::Stages(const JobInputs& in, serve::ArtifactCache& cache)
    : in_(in), cache_(cache) {}

serve::ArtifactCache::Value Stages::resolve(
    const char* stage, const serve::CacheKey& key,
    const std::function<std::vector<std::uint8_t>()>& compute) {
  bool ran = false;
  serve::ArtifactCache::Value bytes = cache_.get_or_compute(key, [&] {
    ran = true;
    return compute();
  });
  if (ran) {
    counters_.count_run(stage);
  } else {
    ++counters_.cache_served;
  }
  return bytes;
}

serve::ArtifactCache::Value Stages::spanning_tree() {
  return resolve(
      kSpanningTreeTask,
      {in_.fingerprint, kSpanningTreeArtifactId, in_.config_hash}, [&] {
        const planar::EmbeddedGraph& graph = *in_.graph;
        PLANSEP_CHECK_MSG(graph.num_components() == 1,
                          "graph must be connected");
        congest::BfsResult bfs;
        {
          // The PartwiseEngine(g, root) ctor wraps its BFS in this span;
          // replay it here so serial metrics stay comparable.
          PLANSEP_SPAN("pa/setup_bfs");
          bfs = congest::distributed_bfs(graph, in_.root);
        }
        return io::assemble_single(io::SectionId::kSpanningTree,
                                   io::encode_spanning_tree({std::move(bfs)}));
      });
}

serve::ArtifactCache::Value Stages::separator() {
  return resolve(
      kSeparatorTask, {in_.fingerprint, "separator@v1", in_.config_hash}, [&] {
        // core::compute_cycle_separator's recipe over an adopted tree.
        shortcuts::PartwiseEngine eng =
            engine_from(*in_.graph, *spanning_tree(), counters_);
        const separator::WholeGraphSeparator run =
            separator::separate_whole_graph(*in_.graph, eng, in_.root);
        return separator_bytes(run.separator(), run.cost);
      });
}

serve::ArtifactCache::Value Stages::dfs() {
  return resolve(
      kDfsTask, {in_.fingerprint, "dfs@v1", in_.config_hash}, [&] {
        // Replays core::compute_dfs_tree; build_dfs_tree folds the engine's
        // setup cost in, so the bytes match the library reference exactly.
        shortcuts::PartwiseEngine eng =
            engine_from(*in_.graph, *spanning_tree(), counters_);
        const dfs::DfsBuildResult build =
            dfs::build_dfs_tree(*in_.graph, in_.root, eng);
        return dfs_bytes(build, build.cost);
      });
}

serve::ArtifactCache::Value Stages::baseline() {
  return resolve(
      kBaselineTask,
      {in_.fingerprint, kLevelSeparatorArtifactId, in_.config_hash}, [&] {
        const congest::BfsResult bfs =
            decode_spanning_tree_bytes(*spanning_tree());
        congest::check_spanning_tree(*in_.graph, bfs);
        return level_separator_bytes(
            baselines::bfs_level_separator(*in_.graph, bfs));
      });
}

serve::ArtifactCache::Value Stages::query_index() {
  // The index key mixes leaf_size in; the spanning tree keeps the plain
  // root mix, so batch and query jobs share one tree per (fingerprint,
  // root).
  return resolve(
      kQueryIndexTask,
      query::index_cache_key(in_.fingerprint, in_.root, in_.leaf_size), [&] {
        const planar::EmbeddedGraph& graph = *in_.graph;
        shortcuts::PartwiseEngine eng =
            engine_from(graph, *spanning_tree(), counters_);
        const separator::SeparatorHierarchy h =
            separator::build_hierarchy(graph, eng, in_.leaf_size);
        counters_.count_run(kHierarchyTask);
        const query::QueryIndex qi =
            query::build_query_index(graph, h, in_.leaf_size);
        // No seed in kMeta: jobs of two seeds can share a fingerprint
        // (grid and cycle ignore theirs), and the stored bytes must not
        // depend on which of them ran first.
        io::Artifact a;
        a.add(io::SectionId::kMeta,
              io::encode_meta({in_.family, 0, in_.fingerprint}));
        a.add(io::SectionId::kHierarchy,
              io::encode_hierarchy({graph.num_nodes(), h}));
        a.add(io::SectionId::kQueryIndex, io::encode_query_index(qi));
        return io::assemble(a);
      });
}

// --------------------------------------------------------- fault stages --
//
// Each attempt builds a fresh engine, whose BFS wave is the only CONGEST
// run a job makes and so the only thing a fault plan can break, runs its
// cached twin's recipe on it and encodes the bytes once they validate.

Recovered recover_separator(const JobInputs& in) {
  const planar::EmbeddedGraph& g = *in.graph;
  Recovered out;
  out.retry = faults::retry_stage(kSeparatorTask, out.cost, [&] {
    shortcuts::PartwiseEngine eng(g, in.root);
    const separator::WholeGraphSeparator run =
        separator::separate_whole_graph(g, eng, in.root);
    out.cost += run.cost;
    const separator::SeparatorCheck check =
        separator::check_separator(run.parts, 0, run.separator());
    if (!check.ok()) {
      std::string why = "separator invariant violated:";
      if (!check.is_tree_path) why += " not-tree-path";
      if (!check.simple_path) why += " not-simple";
      if (!check.closure_ok) why += " closure";
      if (!check.balanced) why += " unbalanced";
      return why;
    }
    if (run.result.stats.phase_counts[7] != 0) {
      return std::string("separator used the last-resort fallback");
    }
    out.bytes = separator_bytes(run.separator(), out.cost);
    return std::string();
  });
  return out;
}

Recovered recover_dfs(const JobInputs& in) {
  const planar::EmbeddedGraph& g = *in.graph;
  Recovered out;
  out.retry = faults::retry_stage(kDfsTask, out.cost, [&] {
    // build_dfs_tree folds the engine's setup cost in, as in Stages::dfs.
    shortcuts::PartwiseEngine eng(g, in.root);
    const dfs::DfsBuildResult build = dfs::build_dfs_tree(g, in.root, eng);
    out.cost += build.cost;
    const dfs::DfsCheck check = dfs::check_dfs_tree(g, build.tree);
    if (!check.ok()) return "dfs invariant violated: " + check.summary();
    out.bytes = dfs_bytes(build, out.cost);
    return std::string();
  });
  return out;
}

Recovered recover_baseline(const JobInputs& in) {
  // The level search runs over a fresh BFS wave and checks its depths, so
  // a wave the plan broke throws.
  Recovered out;
  out.retry = faults::retry_stage(kBaselineTask, out.cost, [&] {
    out.bytes = level_separator_bytes(
        baselines::bfs_level_separator(*in.graph, in.root));
    return std::string();
  });
  return out;
}

const std::vector<std::string>& warmable_artifact_ids() {
  static const std::vector<std::string> ids = {
      kSpanningTreeArtifactId, "separator@v1", "dfs@v1",
      kLevelSeparatorArtifactId};
  return ids;
}

WarmReport warm_from_corpus(serve::ArtifactCache& cache,
                            const std::string& corpus_root) {
  WarmReport rep;
  if (corpus_root.empty()) return rep;
  // Root 0 is the configuration every graph-path job binds (batch.cpp
  // leaves root at 0 for loaded instances), so it is the one a daemon
  // serving corpus-addressed jobs re-keys on.
  const std::uint64_t config_hash = cache_config_hash(0);
  for (const io::CorpusEntry& entry : io::list_corpus(corpus_root)) {
    ++rep.instances;
    for (const std::string& id : warmable_artifact_ids()) {
      const serve::CacheKey key{entry.fingerprint, id, config_hash};
      if (cache.warm(key)) ++rep.artifacts;
    }
  }
  return rep;
}

}  // namespace plansep::taskgraph
