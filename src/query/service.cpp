#include "query/service.hpp"

#include <future>
#include <stdexcept>
#include <utility>

#include "io/artifact.hpp"
#include "obs/metrics.hpp"
#include "taskgraph/pipeline.hpp"

namespace plansep::query {

serve::CacheKey index_cache_key(std::uint64_t fingerprint, NodeId root,
                                int leaf_size) {
  return serve::CacheKey{fingerprint, kIndexAlgorithmId,
                         taskgraph::cache_config_hash(root, leaf_size)};
}

EngineCache::EngineCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<QueryEngine> EngineCache::get_or_build(std::uint64_t address,
                                                       const Builder& build,
                                                       bool* was_hit) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(address);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.hits;
    if (was_hit != nullptr) *was_hit = true;
    return it->second->second;
  }
  ++counters_.misses;
  if (was_hit != nullptr) *was_hit = false;
  std::shared_ptr<QueryEngine> eng = build();
  lru_.emplace_front(address, eng);
  index_[address] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return eng;
}

EngineCache::Counters EngineCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t EngineCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

std::shared_ptr<QueryEngine> engine_from_artifact_bytes(
    const planar::EmbeddedGraph& g, const std::vector<std::uint8_t>& bytes) {
  const io::Artifact a = io::parse(bytes);
  io::HierarchyArtifact ha =
      io::decode_hierarchy(a.require(io::SectionId::kHierarchy));
  QueryIndex qi = io::decode_query_index(a.require(io::SectionId::kQueryIndex));
  if (ha.num_nodes != g.num_nodes() || qi.num_nodes != g.num_nodes()) {
    throw io::FormatError("hierarchy/index node count does not match graph");
  }
  return std::make_shared<QueryEngine>(g, std::move(ha.hierarchy),
                                       std::move(qi));
}

namespace {

void check_pairs(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                 NodeId n, const char* what) {
  for (const auto& [u, v] : pairs) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::runtime_error(std::string(what) + " (" + std::to_string(u) +
                               ", " + std::to_string(v) +
                               ") outside [0, " + std::to_string(n) + ")");
    }
  }
}

}  // namespace

QueryOutcome run_query_job(const QueryJob& job,
                           const serve::BatchOptions& opts,
                           serve::ArtifactCache& cache, EngineCache* engines) {
  QueryOutcome out;
  try {
    if (job.leaf_size < 1 || job.leaf_size > (1 << 20)) {
      throw std::runtime_error("leaf size " + std::to_string(job.leaf_size) +
                               " outside [1, 2^20]");
    }

    // The index stage runs spanning tree → engine → hierarchy → index on
    // a miss. It keys on index_cache_key's mix; the spanning tree keys on
    // the plain root mix, shared with batch jobs on the same fingerprint.
    // The corpus store starts now, overlapped with everything up to the
    // answers.
    const serve::Instance inst = serve::acquire_instance(job.instance);
    std::future<void> store = serve::store_instance(inst, opts.corpus_dir);
    taskgraph::JobInputs in = inst.inputs();
    in.leaf_size = job.leaf_size;
    taskgraph::Stages stages(in, cache);

    const planar::EmbeddedGraph& g = inst.graph;
    check_pairs(job.pairs, g.num_nodes(), "query pair");
    check_pairs(job.dead_edges, g.num_nodes(), "dead edge");
    const serve::ArtifactCache::Value bytes = stages.query_index();

    // --- one bytes→answers path, warm or cold ----------------------------
    std::shared_ptr<QueryEngine> engine;
    if (job.dead_edges.empty() && engines != nullptr) {
      engine = engines->get_or_build(
          serve::cache_address(
              index_cache_key(inst.fingerprint, inst.root, job.leaf_size)),
          [&] { return engine_from_artifact_bytes(g, *bytes); },
          &out.engine_cache_hit);
    } else {
      // Dead-edge jobs get a private engine: kill state is session-scoped
      // and must never leak into a shared oracle.
      engine = engine_from_artifact_bytes(g, *bytes);
      for (const auto& [a, b] : job.dead_edges) engine->kill_edge(a, b);
    }
    out.distances = engine->distances(job.pairs);
    if (store.valid()) store.get();  // rethrows a failed corpus store
    if (obs::MetricsRegistry* reg = obs::global_registry()) {
      reg->add("query/jobs");
      reg->add("query/answers",
               static_cast<long long>(out.distances.size()));
    }
  } catch (const std::exception& e) {
    out = QueryOutcome{};
    out.status = "error";
    out.error = e.what();
  }
  return out;
}

}  // namespace plansep::query
