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

std::shared_ptr<shortcuts::PartwiseEngine> engine_of(TaskContext& ctx) {
  return std::static_pointer_cast<shortcuts::PartwiseEngine>(
      ctx.value(kEngineTask));
}

// The shared front of both graphs: the spanning-tree artifact and the
// ephemeral PartwiseEngine decoded from its *bytes* (one bytes→value
// path, so cache-served and freshly-computed trees drive identical
// downstream computations).
void record_tree_and_engine(TaskGraph& g) {
  g.add(TaskDef{
      kSpanningTreeTask,
      kSpanningTreeArtifactId,
      {},
      [](TaskContext& ctx) {
        const planar::EmbeddedGraph& graph = *ctx.in.graph;
        PLANSEP_CHECK_MSG(graph.num_components() == 1,
                          "graph must be connected");
        congest::BfsResult bfs;
        {
          // The PartwiseEngine(g, root) ctor wraps its BFS in this span;
          // replay it here so serial metrics stay comparable.
          PLANSEP_SPAN("pa/setup_bfs");
          bfs = congest::distributed_bfs(graph, ctx.in.root);
        }
        TaskOutput out;
        out.bytes = single_section(io::SectionId::kSpanningTree,
                                   io::encode_spanning_tree({std::move(bfs)}));
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kEngineTask,
      "",
      {kSpanningTreeTask},
      [](TaskContext& ctx) {
        congest::BfsResult bfs =
            decode_spanning_tree_bytes(*ctx.bytes(kSpanningTreeTask));
        TaskOutput out;
        out.value = std::make_shared<shortcuts::PartwiseEngine>(
            *ctx.in.graph, std::move(bfs));
        return out;
      },
      nullptr});
}

TaskGraph record_pipeline() {
  TaskGraph g("pipeline");
  record_tree_and_engine(g);
  g.add(TaskDef{
      kSeparatorTask,
      "separator@v1",
      {kEngineTask},
      [](TaskContext& ctx) {
        // Replays core::compute_cycle_separator from the prepared engine.
        const planar::EmbeddedGraph& graph = *ctx.in.graph;
        auto engine = engine_of(ctx);
        std::vector<int> part(static_cast<std::size_t>(graph.num_nodes()), 0);
        sub::PartSet ps =
            sub::build_part_set(graph, part, 1, *engine, {ctx.in.root});
        separator::SeparatorEngine sep(*engine);
        separator::SeparatorResult res = sep.compute(ps);
        shortcuts::RoundCost cost = engine->setup_cost();
        cost += ps.cost;
        cost += res.cost;
        io::SeparatorArtifact sa{res.parts.at(0), cost};
        TaskOutput out;
        out.bytes = single_section(io::SectionId::kSeparator,
                                   io::encode_separator(sa));
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kDfsTask,
      "dfs@v1",
      {kEngineTask},
      [](TaskContext& ctx) {
        // Replays core::compute_dfs_tree; build_dfs_tree folds the
        // engine's setup cost in, so the artifact bytes match the library
        // reference exactly.
        auto engine = engine_of(ctx);
        dfs::DfsBuildResult build =
            dfs::build_dfs_tree(*ctx.in.graph, ctx.in.root, *engine);
        io::DfsArtifact da = io::dfs_artifact_from_tree(build.tree);
        da.phases = build.phases;
        da.cost = build.cost;
        TaskOutput out;
        out.bytes =
            single_section(io::SectionId::kDfsTree, io::encode_dfs(da));
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kBaselineTask,
      kLevelSeparatorArtifactId,
      {kSpanningTreeTask},
      [](TaskContext& ctx) {
        const congest::BfsResult bfs =
            decode_spanning_tree_bytes(*ctx.bytes(kSpanningTreeTask));
        congest::check_spanning_tree(*ctx.in.graph, bfs);
        baselines::LevelSeparatorResult res =
            baselines::bfs_level_separator(*ctx.in.graph, bfs);
        TaskOutput out;
        out.bytes =
            single_section(io::SectionId::kLevelSeparator,
                           io::encode_level_separator({std::move(res)}));
        return out;
      },
      nullptr});
  return g;
}

TaskGraph record_recovery() {
  TaskGraph g("recovery");
  g.add(TaskDef{
      kSeparatorTask,
      "",
      {},
      [](TaskContext& ctx) {
        faults::RecoveredSeparator rec =
            faults::compute_separator_with_recovery(*ctx.in.graph, ctx.in.root,
                                                    ctx.in.retry);
        TaskOutput out;
        if (rec.recovery.ok) {
          io::SeparatorArtifact sa{rec.result->parts.at(0), rec.cost};
          out.bytes = single_section(io::SectionId::kSeparator,
                                     io::encode_separator(sa));
        }
        out.value = std::make_shared<faults::RetryStats>(rec.recovery);
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kDfsTask,
      "",
      {},
      [](TaskContext& ctx) {
        faults::RecoveredDfs rec = faults::build_dfs_tree_with_recovery(
            *ctx.in.graph, ctx.in.root, ctx.in.retry);
        TaskOutput out;
        if (rec.recovery.ok) {
          io::DfsArtifact da = io::dfs_artifact_from_tree(rec.build->tree);
          da.phases = rec.build->phases;
          da.cost = rec.cost;
          out.bytes =
              single_section(io::SectionId::kDfsTree, io::encode_dfs(da));
        }
        out.value = std::make_shared<faults::RetryStats>(rec.recovery);
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kBaselineTask,
      "",
      {},
      [](TaskContext& ctx) {
        // The level search is a pure function of the BFS wave, which is
        // deterministic under a fault plan. It has no recovery driver: a
        // wave the plan breaks fails the job (the search checks depths).
        TaskOutput out;
        out.bytes = single_section(
            io::SectionId::kLevelSeparator,
            io::encode_level_separator(
                {baselines::bfs_level_separator(*ctx.in.graph, ctx.in.root)}));
        return out;
      },
      nullptr});
  return g;
}

TaskGraph record_query() {
  TaskGraph g("query");
  record_tree_and_engine(g);
  g.add(TaskDef{
      kHierarchyTask,
      "",
      {kEngineTask},
      [](TaskContext& ctx) {
        auto engine = engine_of(ctx);
        TaskOutput out;
        out.value = std::make_shared<separator::SeparatorHierarchy>(
            separator::build_hierarchy(*ctx.in.graph, *engine,
                                       ctx.in.leaf_size));
        return out;
      },
      nullptr});
  g.add(TaskDef{
      kQueryIndexTask,
      query::kIndexAlgorithmId,
      {kHierarchyTask},
      [](TaskContext& ctx) {
        const planar::EmbeddedGraph& graph = *ctx.in.graph;
        auto h = std::static_pointer_cast<separator::SeparatorHierarchy>(
            ctx.value(kHierarchyTask));
        const query::QueryIndex qi =
            query::build_query_index(graph, *h, ctx.in.leaf_size);
        // No seed in kMeta: jobs of two seeds can share a fingerprint
        // (grid and cycle ignore theirs), and the stored bytes must not
        // depend on which of them ran first.
        io::Artifact a;
        a.add(io::SectionId::kMeta,
              io::encode_meta({ctx.in.family, 0, ctx.in.fingerprint}));
        a.add(io::SectionId::kHierarchy,
              io::encode_hierarchy({graph.num_nodes(), *h}));
        a.add(io::SectionId::kQueryIndex, io::encode_query_index(qi));
        TaskOutput out;
        out.bytes = io::assemble(a);
        return out;
      },
      // The index key mixes leaf_size in (query::index_cache_key); the
      // spanning tree above keeps the plain root mix so batch and query
      // jobs share one tree per (fingerprint, root).
      [](const JobInputs& in) {
        return cache_config_hash(in.root, in.leaf_size);
      }});
  return g;
}

}  // namespace

std::uint64_t cache_config_hash(planar::NodeId root, int leaf_size) {
  return core::mix_seed(0x726f6f7400000000ULL /* "root" */,
                        static_cast<std::uint64_t>(root),
                        static_cast<std::uint64_t>(leaf_size));
}

const TaskGraph& pipeline_graph() {
  static const TaskGraph graph = record_pipeline();
  return graph;
}

const TaskGraph& recovery_graph() {
  static const TaskGraph graph = record_recovery();
  return graph;
}

const TaskGraph& query_graph() {
  static const TaskGraph graph = record_query();
  return graph;
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
