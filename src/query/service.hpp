#pragma once

/// \file
/// Query serving glue: the cache-backed job runner shared by the daemon
/// and direct callers, plus the prepared-engine cache.

// One query job = one instance spec (the serve::JobSpec grammar — family,
// n, seed, or an explicit .psg path), a hierarchy leaf size, a batch of
// (u, v) pairs, and an optional list of dead edges. run_query_job:
//
//   1. acquires the instance through serve::acquire_instance, the path
//      batch jobs take (generate-or-load);
//   2. fetches the persisted hierarchy+index artifact through
//      taskgraph::Stages::query_index(), which resolves it through the
//      shared serve::ArtifactCache under the key
//      (fingerprint, "hier-index@v1", hash(root, leaf_size)) — a .psg
//      container with kMeta + kHierarchy + kQueryIndex sections, so a
//      disk-tier cache warm-loads the oracle across process restarts —
//      while serve::store_instance writes a generated instance to the
//      corpus on the side;
//   3. decodes the artifact bytes into a QueryEngine — cold and warm runs
//      share this one bytes→answers path, which is why answers are
//      byte-identical across cache temperature — optionally memoized in
//      an EngineCache keyed by the artifact's content address;
//   4. applies dead edges (such jobs always build a private engine: kill
//      state must never leak into a shared one) and answers the batch.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/engine.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"

namespace plansep::query {

/// Versioned algorithm id of the persisted hierarchy+index artifact.
inline constexpr const char* kIndexAlgorithmId = "hier-index@v1";

/// Cache key of the persisted index for one instance + configuration.
serve::CacheKey index_cache_key(std::uint64_t fingerprint, NodeId root,
                                int leaf_size);

/// One query job.
struct QueryJob {
  serve::JobSpec instance;  ///< family/n/seed or graph path (algo ignored)
  int leaf_size = 128;      ///< hierarchy leaf bound (part of cache identity)
  std::vector<std::pair<NodeId, NodeId>> pairs;       ///< queried pairs
  std::vector<std::pair<NodeId, NodeId>> dead_edges;  ///< killed edges
};

/// Outcome of one query job.
struct QueryOutcome {
  std::string status = "ok";  ///< "ok" or "error"
  std::string error;          ///< diagnosis when status == "error"
  /// One distance per input pair, in order; -1 = unreachable.
  std::vector<std::int64_t> distances;
  bool engine_cache_hit = false;  ///< served from a prepared engine
};

/// Small LRU of prepared engines keyed by the index artifact's content
/// address, so repeated queries against one instance skip the decode.
/// Only kill-free engines are cached (see the file comment). The builder
/// runs under the cache lock — a deliberate single-flight-by-serialization
/// so one decode ever runs per address.
class EngineCache {
 public:
  /// Cache statistics.
  struct Counters {
    long long hits = 0;       ///< served an already-prepared engine
    long long misses = 0;     ///< builder runs
    long long evictions = 0;  ///< engines dropped for capacity
  };
  /// Builds the engine for an address on miss.
  using Builder = std::function<std::shared_ptr<QueryEngine>()>;

  /// A cache holding at most `capacity` prepared engines.
  explicit EngineCache(std::size_t capacity = 4);

  /// The prepared engine for the address, building it at most once while
  /// cached (LRU eviction). `was_hit` (nullable) reports whether this
  /// call was served without running the builder.
  std::shared_ptr<QueryEngine> get_or_build(std::uint64_t address,
                                            const Builder& build,
                                            bool* was_hit = nullptr);
  /// Counter snapshot.
  Counters counters() const;
  /// Engines currently held.
  std::size_t entries() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  // front = most recent
  std::list<std::pair<std::uint64_t, std::shared_ptr<QueryEngine>>> lru_;
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t, std::shared_ptr<QueryEngine>>>::iterator>
      index_;
  Counters counters_;
};

/// Decodes a persisted hierarchy+index artifact into a ready engine for
/// the given graph. Throws io::FormatError when sections are missing or
/// inconsistent with the graph.
std::shared_ptr<QueryEngine> engine_from_artifact_bytes(
    const planar::EmbeddedGraph& g, const std::vector<std::uint8_t>& bytes);

/// Runs one query job (see the file comment). `engines` may be null —
/// every answer is then served straight from the decoded bytes.
QueryOutcome run_query_job(const QueryJob& job,
                           const serve::BatchOptions& opts,
                           serve::ArtifactCache& cache, EngineCache* engines);

}  // namespace plansep::query
