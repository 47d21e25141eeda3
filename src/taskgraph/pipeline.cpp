#include "taskgraph/pipeline.hpp"

#include <utility>

#include "baselines/level_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "core/fingerprint.hpp"
#include "dfs/builder.hpp"
#include "faults/recovery.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "obs/metrics.hpp"
#include "query/index.hpp"
#include "query/service.hpp"
#include "separator/engine.hpp"
#include "separator/hierarchy.hpp"
#include "shortcuts/partwise.hpp"
#include "subroutines/part_context.hpp"
#include "util/check.hpp"

namespace plansep::taskgraph {

namespace {

std::vector<std::uint8_t> single_section(io::SectionId id,
                                         std::vector<std::uint8_t> payload) {
  io::Artifact a;
  a.add(id, std::move(payload));
  return io::assemble(a);
}

const io::Section& require_section(const io::Artifact& a, io::SectionId id,
                                   const char* what) {
  const io::Section* sec = a.find(id);
  if (sec == nullptr) {
    throw io::FormatError(std::string("artifact lacks ") + what);
  }
  return *sec;
}

congest::BfsResult decode_spanning_tree_bytes(
    const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  const io::Section& sec =
      require_section(a, io::SectionId::kSpanningTree, "kSpanningTree");
  return io::decode_spanning_tree(sec.bytes).bfs;
}

std::vector<std::uint8_t> separator_bytes(const separator::PartSeparator& part,
                                          const shortcuts::RoundCost& cost) {
  return single_section(io::SectionId::kSeparator,
                        io::encode_separator({part, cost}));
}

std::vector<std::uint8_t> dfs_bytes(const dfs::DfsBuildResult& build,
                                    const shortcuts::RoundCost& cost) {
  io::DfsArtifact da = io::dfs_artifact_from_tree(build.tree);
  da.phases = build.phases;
  da.cost = cost;
  return single_section(io::SectionId::kDfsTree, io::encode_dfs(da));
}

std::vector<std::uint8_t> level_separator_bytes(
    baselines::LevelSeparatorResult res) {
  return single_section(io::SectionId::kLevelSeparator,
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

Stages::~Stages() = default;

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
  if (tree_) return tree_;
  tree_ = resolve(
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
        return single_section(io::SectionId::kSpanningTree,
                              io::encode_spanning_tree({std::move(bfs)}));
      });
  return tree_;
}

// Decoded from the tree's *bytes* (one bytes→value path), so cache-served
// and freshly computed trees drive identical downstream computations.
shortcuts::PartwiseEngine& Stages::engine() {
  if (!engine_) {
    congest::BfsResult bfs = decode_spanning_tree_bytes(*spanning_tree());
    engine_ = std::make_unique<shortcuts::PartwiseEngine>(*in_.graph,
                                                          std::move(bfs));
    counters_.count_run(kEngineTask);
  }
  return *engine_;
}

serve::ArtifactCache::Value Stages::separator() {
  return resolve(
      kSeparatorTask, {in_.fingerprint, "separator@v1", in_.config_hash}, [&] {
        // Replays core::compute_cycle_separator from the prepared engine.
        const planar::EmbeddedGraph& graph = *in_.graph;
        shortcuts::PartwiseEngine& eng = engine();
        std::vector<int> part(static_cast<std::size_t>(graph.num_nodes()), 0);
        sub::PartSet ps = sub::build_part_set(graph, part, 1, eng, {in_.root});
        separator::SeparatorEngine sep(eng);
        separator::SeparatorResult res = sep.compute(ps);
        shortcuts::RoundCost cost = eng.setup_cost();
        cost += ps.cost;
        cost += res.cost;
        return separator_bytes(res.parts.at(0), cost);
      });
}

serve::ArtifactCache::Value Stages::dfs() {
  return resolve(
      kDfsTask, {in_.fingerprint, "dfs@v1", in_.config_hash}, [&] {
        // Replays core::compute_dfs_tree; build_dfs_tree folds the engine's
        // setup cost in, so the bytes match the library reference exactly.
        const dfs::DfsBuildResult build =
            dfs::build_dfs_tree(*in_.graph, in_.root, engine());
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
        const separator::SeparatorHierarchy h =
            separator::build_hierarchy(graph, engine(), in_.leaf_size);
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

Recovered recover_separator(const JobInputs& in) {
  faults::RecoveredSeparator rec =
      faults::compute_separator_with_recovery(*in.graph, in.root);
  Recovered out{{}, rec.recovery};
  if (rec.recovery.ok) {
    out.bytes = separator_bytes(rec.result->parts.at(0), rec.cost);
  }
  return out;
}

Recovered recover_dfs(const JobInputs& in) {
  faults::RecoveredDfs rec =
      faults::build_dfs_tree_with_recovery(*in.graph, in.root);
  Recovered out{{}, rec.recovery};
  if (rec.recovery.ok) out.bytes = dfs_bytes(*rec.build, rec.cost);
  return out;
}

Recovered recover_baseline(const JobInputs& in) {
  // The level search is a pure function of the BFS wave, which is
  // deterministic under a fault plan; the search checks its depths. With
  // no driver, it returns after one attempt or throws.
  return {level_separator_bytes(
              baselines::bfs_level_separator(*in.graph, in.root)),
          {true, 1, 0, ""}};
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
