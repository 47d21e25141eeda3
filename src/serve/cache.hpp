#pragma once

/// \file
/// Content-addressed result cache: byte-capacity LRU over serialized
/// artifacts, single-flight deduplication, optional on-disk store.

// The serving layer's result cache.
//
// Keys are (topology fingerprint, algorithm id, config hash) — the full
// identity of a deterministic computation, so a cached value is exactly
// the bytes the computation would produce (io/artifact.hpp encodings are
// canonical). Three tiers:
//
//   * in-memory LRU, bounded by total payload bytes (capacity_bytes);
//     values are shared_ptrs, so an evicted entry stays alive for readers
//     already holding it;
//   * optional on-disk store (disk_dir): every computed value is written
//     to <disk_dir>/<address>.psa and memory misses consult it before
//     computing — this is what makes a second `plansep_batch` process run
//     warm. Disk payloads are container-parsed before being trusted; a
//     corrupted file is recomputed, never served.
//   * single-flight: concurrent get_or_compute calls for one key block on
//     a shared flight instead of computing in parallel — exactly one
//     compute per key ever runs, so the miss count is a pure function of
//     the keys requested, independent of thread count (the scheduler's
//     determinism argument, DESIGN.md §9, leans on this). Hit counts are
//     not: a caller may request more keys when it leads a flight (a job's
//     stages do, taskgraph::TaskGraphCounters).
//
// All methods are thread-safe. A compute callback runs outside the cache
// lock; if it throws, every waiter of that flight rethrows and nothing is
// cached.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace plansep::serve {

/// Identity of a cached computation.
struct CacheKey {
  std::uint64_t fingerprint = 0;  ///< core::topology_fingerprint of the input
  std::string algorithm;          ///< versioned algorithm id, e.g. "dfs@v1"
  std::uint64_t config_hash = 0;  ///< hash of every remaining config knob

  /// Field-wise equality.
  bool operator==(const CacheKey& o) const {
    return fingerprint == o.fingerprint && config_hash == o.config_hash &&
           algorithm == o.algorithm;
  }
};

/// The 64-bit content address of a key (mix of all three components) —
/// the disk file name and the in-memory bucket identity.
std::uint64_t cache_address(const CacheKey& key);

/// Monotonic counters describing cache behaviour. Single-flight makes
/// misses independent of the schedule for a fixed set of requested keys;
/// hits are not (see the file comment).
struct CacheCounters {
  long long hits = 0;        ///< served from memory (coalesced joins included)
  long long disk_hits = 0;   ///< served from the on-disk store
  long long misses = 0;      ///< computes actually run
  long long evictions = 0;   ///< entries dropped for capacity
  long long inserted_bytes = 0;   ///< payload bytes ever inserted
  long long disk_corrupt = 0;     ///< disk payloads rejected by parsing
  long long disk_write_failed = 0;  ///< best-effort disk writes that failed
  /// Entries preloaded from disk by warm() (boot warm-up; not hits).
  long long warmed = 0;

  /// Total lookups answered without running a compute.
  long long served_without_compute() const { return hits + disk_hits; }
  /// Component-wise difference (for before/after snapshots).
  CacheCounters operator-(const CacheCounters& o) const;
};

/// Interface shared by the flat and sharded caches: everything a job
/// executor needs (lookup-or-compute plus counters). The job runners and
/// the daemon dispatcher are written against this, so either tier plugs
/// in.
class ArtifactCache {
 public:
  /// The value type: immutable shared artifact bytes.
  using Value = std::shared_ptr<const std::vector<std::uint8_t>>;
  /// A compute callback producing the value for a key on miss.
  using Compute = std::function<std::vector<std::uint8_t>()>;

  virtual ~ArtifactCache() = default;

  /// Returns the cached value for key, computing (or disk-loading) it at
  /// most once across all concurrent callers (single-flight). Exceptions
  /// from compute propagate to every caller of that flight; nothing is
  /// cached then.
  virtual Value get_or_compute(const CacheKey& key,
                               const Compute& compute) = 0;
  /// Preloads the key from the disk tier into memory without ever
  /// computing. Returns true when the key is now resident (already in
  /// memory, or loaded from a verified disk payload). Never counts a hit
  /// or miss; a disk load bumps `warmed`. Default: not supported.
  virtual bool warm(const CacheKey& key) { (void)key; return false; }
  /// Counter snapshot (aggregated over shards for the sharded tier).
  virtual CacheCounters counters() const = 0;
  /// Single-flight entries currently in progress. Zero whenever no
  /// get_or_compute call is executing — a nonzero value at quiescence is
  /// a leaked flight (the drain/soak tests assert this).
  virtual std::size_t inflight_flights() const = 0;
};

/// Byte-bounded LRU + single-flight cache over serialized artifacts.
class ResultCache : public ArtifactCache {
 public:
  /// Construction knobs.
  struct Options {
    /// In-memory payload budget; eviction is LRU once exceeded. A value
    /// larger than the budget is returned but not retained.
    std::size_t capacity_bytes = 64u << 20;
    /// On-disk store directory; empty disables the disk tier.
    std::string disk_dir;
  };

  /// An empty cache with the given options.
  explicit ResultCache(Options opts);

  /// Returns the cached value for key, computing (or disk-loading) it at
  /// most once across all concurrent callers. Exceptions from compute
  /// propagate to every caller of that flight; nothing is cached then.
  Value get_or_compute(const CacheKey& key, const Compute& compute) override;

  /// Disk-tier preload (see ArtifactCache::warm).
  bool warm(const CacheKey& key) override;

  /// Memory-only peek (counts neither hit nor miss); null when absent.
  Value peek(const CacheKey& key) const;

  /// Current in-memory payload bytes.
  std::size_t size_bytes() const;
  /// Current in-memory entry count.
  std::size_t entries() const;
  /// Counter snapshot.
  CacheCounters counters() const override;
  /// In-progress single-flight entries (see ArtifactCache).
  std::size_t inflight_flights() const override;
  /// The configured options.
  const Options& options() const { return opts_; }

 private:
  struct Entry {
    std::uint64_t address;
    CacheKey key;
    Value value;
  };
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Value value;
    std::exception_ptr error;
  };

  std::string disk_path(std::uint64_t address) const;
  // callers hold mu_
  Value find_locked(std::uint64_t address, const CacheKey& key);
  void insert_locked(std::uint64_t address, const CacheKey& key, Value v);

  Options opts_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  std::size_t bytes_ = 0;
  CacheCounters counters_;
};

/// Sharded in-memory tier over N independent ResultCache shards, in front
/// of one shared disk tier. Keys map to shards by their content address
/// (shard_of), so two lookups of one key always meet in the same shard —
/// single-flight dedup keeps working — while lookups of distinct keys
/// mostly take distinct shard locks. A disk-tier hit is loaded by the
/// owning shard and therefore repopulates exactly that shard's memory.
/// The memory budget is split evenly; a value larger than one shard's
/// slice is served but not retained, like the flat cache's oversize rule.
class ShardedResultCache : public ArtifactCache {
 public:
  /// Construction knobs.
  struct Options {
    /// Total in-memory payload budget, split evenly across shards.
    std::size_t capacity_bytes = 64u << 20;
    /// Shard count (clamped to >= 1). Keep it a small power of two.
    int shards = 8;
    /// On-disk store directory shared by every shard; "" disables the
    /// disk tier. File names are content addresses, so shards never
    /// collide on disk.
    std::string disk_dir;
  };

  /// An empty sharded cache with the given options.
  explicit ShardedResultCache(Options opts);

  /// Delegates to the owning shard's get_or_compute.
  Value get_or_compute(const CacheKey& key, const Compute& compute) override;
  /// Delegates to the owning shard's warm.
  bool warm(const CacheKey& key) override;
  /// Memory-only peek into the owning shard.
  Value peek(const CacheKey& key) const;

  /// The shard index key maps to: a stable function of cache_address(key)
  /// and the shard count only.
  int shard_of(const CacheKey& key) const;
  /// Number of shards.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Direct shard access (tests assert per-shard placement).
  ResultCache& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }

  /// Sum of every shard's in-memory payload bytes.
  std::size_t size_bytes() const;
  /// Sum of every shard's in-memory entry count.
  std::size_t entries() const;
  /// Component-wise sum of every shard's counters.
  CacheCounters counters() const override;
  /// Sum of every shard's in-progress flights (see ArtifactCache).
  std::size_t inflight_flights() const override;
  /// The configured options.
  const Options& options() const { return opts_; }

 private:
  Options opts_;
  std::vector<std::unique_ptr<ResultCache>> shards_;
};

}  // namespace plansep::serve
