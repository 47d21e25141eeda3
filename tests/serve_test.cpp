// The serving layer (src/serve/): cache LRU/eviction semantics,
// single-flight dedup under real threads, the disk tier, and the batch
// scheduler's determinism contract — byte-identical rows across thread
// counts and cache temperature, deadline degradation, fault recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "io/artifact.hpp"
#include "io/corpus.hpp"
#include "query/service.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/verify.hpp"
#include "scratch_dir.hpp"

namespace plansep {
namespace {

namespace fs = std::filesystem;

// A tiny well-formed artifact whose payload is `fill` repeated — cache
// values must parse (the disk tier verifies containers).
std::vector<std::uint8_t> tiny_artifact(std::uint8_t fill, std::size_t size) {
  io::Artifact a;
  a.add(io::SectionId::kMeta, std::vector<std::uint8_t>());
  a.sections[0].bytes = io::encode_meta({std::string(size, char('a' + fill % 26)),
                                         fill, 0});
  return io::assemble(a);
}

serve::CacheKey key_of(std::uint64_t i) {
  return serve::CacheKey{0x1000 + i, "test@v1", 7};
}

TEST(ServeCache, AddressMixesAllComponents) {
  const serve::CacheKey base{1, "separator@v1", 2};
  EXPECT_NE(serve::cache_address(base),
            serve::cache_address({2, "separator@v1", 2}));
  EXPECT_NE(serve::cache_address(base),
            serve::cache_address({1, "dfs@v1", 2}));
  EXPECT_NE(serve::cache_address(base),
            serve::cache_address({1, "separator@v1", 3}));
  EXPECT_EQ(serve::cache_address(base), serve::cache_address(base));
}

TEST(ServeCache, LruEvictsOldestWhenOverBudget) {
  const auto one = tiny_artifact(0, 64);
  serve::ResultCache cache({one.size() * 3, ""});
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.get_or_compute(key_of(i), [&] { return tiny_artifact(0, 64); });
  }
  EXPECT_LE(cache.size_bytes(), one.size() * 3);
  EXPECT_EQ(cache.entries(), 3u);
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 5);
  EXPECT_EQ(c.evictions, 2);
  // Keys 0 and 1 were evicted; 2..4 still resident.
  EXPECT_EQ(cache.peek(key_of(0)), nullptr);
  EXPECT_EQ(cache.peek(key_of(1)), nullptr);
  EXPECT_NE(cache.peek(key_of(4)), nullptr);
  // A hit refreshes recency: touch 2, insert one more, 3 is the victim.
  cache.get_or_compute(key_of(2), [&] { return tiny_artifact(0, 64); });
  cache.get_or_compute(key_of(5), [&] { return tiny_artifact(0, 64); });
  EXPECT_NE(cache.peek(key_of(2)), nullptr);
  EXPECT_EQ(cache.peek(key_of(3)), nullptr);
}

TEST(ServeCache, OversizedValueServedButNotRetained) {
  serve::ResultCache cache({32, ""});
  const auto v = cache.get_or_compute(key_of(1), [] {
    return tiny_artifact(1, 128);
  });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.peek(key_of(1)), nullptr);
}

TEST(ServeCache, SingleFlightComputesOnceUnderContention) {
  serve::ResultCache cache({1 << 20, ""});
  std::atomic<int> computes{0};
  const auto compute = [&] {
    ++computes;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return tiny_artifact(2, 64);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { cache.get_or_compute(key_of(9), compute); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits, 3);  // coalesced joiners count as hits
}

TEST(ServeCache, DiskTierServesAcrossCacheInstances) {
  ScratchDir dir("disk");
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return tiny_artifact(3, 64);
  };
  {
    serve::ResultCache warm({1 << 20, dir.path()});
    warm.get_or_compute(key_of(5), compute);
    EXPECT_EQ(warm.counters().misses, 1);
  }
  serve::ResultCache fresh({1 << 20, dir.path()});
  const auto v = fresh.get_or_compute(key_of(5), compute);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(computes, 1);  // served from disk, not recomputed
  const auto c = fresh.counters();
  EXPECT_EQ(c.disk_hits, 1);
  EXPECT_EQ(c.misses, 0);
  // Now resident in memory: the next lookup is a plain hit.
  fresh.get_or_compute(key_of(5), compute);
  EXPECT_EQ(fresh.counters().hits, 1);
}

TEST(ServeCache, CorruptDiskEntryIsRecomputedNotServed) {
  ScratchDir dir("corrupt");
  serve::ResultCache seed_cache({1 << 20, dir.path()});
  seed_cache.get_or_compute(key_of(6), [] { return tiny_artifact(4, 64); });
  // Vandalize the stored file.
  const std::string path =
      (fs::path(dir.path()) /
       (core::fingerprint_hex(serve::cache_address(key_of(6))) + ".psa"))
          .string();
  ASSERT_TRUE(fs::exists(path));
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "not an artifact";
  }
  serve::ResultCache fresh({1 << 20, dir.path()});
  int computes = 0;
  const auto v = fresh.get_or_compute(key_of(6), [&] {
    ++computes;
    return tiny_artifact(4, 64);
  });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(computes, 1);
  const auto c = fresh.counters();
  EXPECT_EQ(c.disk_corrupt, 1);
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.disk_hits, 0);
}

// ------------------------------------------------------------ job files --

TEST(ServeBatch, ParsesJobLinesAndComments) {
  EXPECT_FALSE(serve::parse_job_line("", 1).has_value());
  EXPECT_FALSE(serve::parse_job_line("   # just a comment", 2).has_value());
  const auto spec = serve::parse_job_line(
      "--family=cylinder --n=48 --seed=9 --algo=dfs --deadline-ms=250 "
      "--drop=0.25 --fault-seed=11  # trailing note",
      3);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->family, "cylinder");
  EXPECT_EQ(spec->n, 48);
  EXPECT_EQ(spec->seed, 9u);
  EXPECT_EQ(spec->algo, serve::Algo::kDfs);
  EXPECT_EQ(spec->deadline_ms, 250);
  EXPECT_DOUBLE_EQ(spec->faults.drop_prob, 0.25);
  EXPECT_EQ(spec->fault_seed, 11u);
  EXPECT_EQ(spec->line, 3);

  EXPECT_THROW(serve::parse_job_line("--bogus=1", 4), std::runtime_error);
  EXPECT_THROW(serve::parse_job_line("--n=notanumber", 5), std::runtime_error);
  EXPECT_THROW(serve::parse_job_line("--drop=2.0", 6), std::runtime_error);
  // --n must fit a node count: never truncated to int, never clamped.
  for (const char* n : {"--n=4294967360", "--n=-5", "--n=-7", "--n=0"}) {
    EXPECT_THROW(serve::parse_job_line(n, 7), std::runtime_error) << n;
  }
  // Unsigned values take no sign, and nothing saturates on overflow.
  for (const char* bad :
       {"--seed=-1", "--fault-seed=-1", "--seed=+1",
        "--seed=18446744073709551616",
        "--deadline-ms=99999999999999999999999", "--drop=nan"}) {
    EXPECT_THROW(serve::parse_job_line(bad, 8), std::runtime_error) << bad;
  }
  EXPECT_EQ(serve::parse_job_line("--seed=18446744073709551615", 9)->seed,
            18446744073709551615u);
  EXPECT_EQ(serve::parse_job_line("--deadline-ms=-1", 10)->deadline_ms, -1);

  std::istringstream file(
      "# header\n"
      "--family=grid --n=25 --seed=1\n"
      "\n"
      "--family=cycle --n=12 --seed=2 --algo=separator\n");
  const auto jobs = serve::parse_job_file(file);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].line, 2);
  EXPECT_EQ(jobs[1].line, 4);
}

// ------------------------------------------------------------ scheduler --

std::vector<serve::JobSpec> demo_jobs() {
  std::istringstream file(
      "--family=grid --n=49 --seed=1 --algo=pipeline\n"
      "--family=triangulation --n=60 --seed=2 --algo=separator\n"
      "--family=cycle --n=24 --seed=3 --algo=dfs\n"
      "--family=outerplanar --n=40 --seed=4 --algo=pipeline\n"
      "--family=grid --n=49 --seed=1 --algo=pipeline\n"  // dup of job 0
      "--family=wheel --n=30 --seed=5 --algo=separator\n");
  return serve::parse_job_file(file);
}

std::string joined_rows(const serve::BatchReport& rep) {
  std::string out;
  for (const auto& r : rep.results) {
    out += r.row;
    out += '\n';
  }
  return out;
}

TEST(ServeBatch, AllDemoJobsSucceedAndVerify) {
  serve::ResultCache cache({1 << 22, ""});
  std::ostringstream rows;
  const auto rep = serve::run_batch(demo_jobs(), {}, cache, &rows);
  EXPECT_EQ(rep.ok, rep.jobs);
  EXPECT_EQ(rep.errors, 0);
  EXPECT_EQ(rep.check_failed, 0);
  EXPECT_EQ(rows.str(), joined_rows(rep));
  for (const auto& r : rep.results) {
    EXPECT_NE(r.row.find("\"verified\":true"), std::string::npos) << r.row;
    EXPECT_EQ(r.row.find("\"verified\":false"), std::string::npos) << r.row;
  }
  // Jobs 0 and 3 (pipelines) each serve their DFS compute the tree their
  // separator compute built, and job 4 repeats job 0's key set: both its
  // stages are served warm, and its row matches job 0's in everything but
  // the job index.
  EXPECT_EQ(rep.cache.hits, 4);
  EXPECT_EQ(rep.results[4].row.substr(rep.results[4].row.find(',')),
            rep.results[0].row.substr(rep.results[0].row.find(',')));
}

TEST(ServeBatch, SerialAndFourThreadRunsAreByteIdentical) {
  serve::BatchOptions serial;
  serial.threads = 1;
  serve::ResultCache cache1({1 << 22, ""});
  const auto rep1 = serve::run_batch(demo_jobs(), serial, cache1, nullptr);

  for (const int threads : {4, 8}) {
    serve::BatchOptions par;
    par.threads = threads;
    serve::ResultCache cache({1 << 22, ""});
    const auto rep = serve::run_batch(demo_jobs(), par, cache, nullptr);
    EXPECT_EQ(joined_rows(rep1), joined_rows(rep)) << "threads=" << threads;
    // Single-flight runs one compute per key, and each computed artifact
    // looks the tree up and builds its engine once, so every counter is
    // a function of the job list alone, whichever job leads a flight.
    EXPECT_EQ(rep1.cache, rep.cache) << "threads=" << threads;
    EXPECT_EQ(rep1.taskgraph, rep.taskgraph) << "threads=" << threads;
  }
}

TEST(ServeBatch, WarmRunIsByteIdenticalAndComputesNothing) {
  serve::ResultCache cache({1 << 22, ""});
  const auto cold = serve::run_batch(demo_jobs(), {}, cache, nullptr);
  EXPECT_GT(cold.cache.misses, 0);
  const auto warm = serve::run_batch(demo_jobs(), {}, cache, nullptr);
  EXPECT_EQ(joined_rows(cold), joined_rows(warm));
  EXPECT_EQ(warm.cache.misses, 0);
  EXPECT_GT(warm.cache.served_without_compute(), 0);
}

TEST(ServeBatch, DiskCacheWarmsASecondColdProcess) {
  ScratchDir dir("batchdisk");
  {
    serve::ResultCache cache({1 << 22, dir.path()});
    serve::run_batch(demo_jobs(), {}, cache, nullptr);
  }
  serve::ResultCache fresh({1 << 22, dir.path()});
  const auto warm = serve::run_batch(demo_jobs(), {}, fresh, nullptr);
  EXPECT_EQ(warm.cache.misses, 0);
  EXPECT_GT(warm.cache.disk_hits, 0);
  EXPECT_EQ(warm.ok, warm.jobs);
}

TEST(ServeBatch, ExpiredDeadlineDegradesGracefully) {
  auto jobs = demo_jobs();
  jobs[0].deadline_ms = 0;  // expired on admission — deterministic
  serve::ResultCache cache({1 << 22, ""});
  const auto rep = serve::run_batch(jobs, {}, cache, nullptr);
  EXPECT_EQ(rep.deadline_missed, 1);
  EXPECT_EQ(rep.results[0].status, "deadline");
  EXPECT_NE(rep.results[0].row.find("\"status\":\"deadline\""),
            std::string::npos)
      << rep.results[0].row;
  // The expired job reports no stage objects but the batch soldiers on.
  EXPECT_EQ(rep.results[0].row.find("\"separator\":{"), std::string::npos);
  EXPECT_EQ(rep.results[0].row.find("\"dfs\":{"), std::string::npos);
  EXPECT_EQ(rep.ok, rep.jobs - 1);
}

TEST(ServeBatch, CorpusStoresGeneratedInstances) {
  ScratchDir dir("corpus");
  serve::BatchOptions opts;
  opts.corpus_dir = dir.path();
  serve::ResultCache cache({1 << 22, ""});
  const auto rep = serve::run_batch(demo_jobs(), opts, cache, nullptr);
  EXPECT_EQ(rep.ok, rep.jobs);
  // 6 jobs, one duplicate instance → 5 distinct stored graphs.
  const auto entries = io::list_corpus(dir.path());
  EXPECT_EQ(entries.size(), 5u);
}

// The corpus store runs beside each job (serve::store_instance) and its
// failure is the job's: a corpus root below a regular file cannot be
// created, and both a batch job and a query job report the store's error.
TEST(ServeStore, FailedStoreIsTheJobsError) {
  ScratchDir dir("blocked");
  const std::string file = dir.path() + "/not-a-dir";
  std::ofstream(file) << "x";
  serve::BatchOptions opts;
  opts.corpus_dir = file + "/corpus";
  serve::ResultCache cache({1 << 22, ""});
  const serve::JobSpec spec = demo_jobs()[0];
  const serve::JobResult job = serve::run_single_job(spec, 0, opts, cache);
  EXPECT_EQ(job.status, "error");
  EXPECT_NE(job.error.find("cannot create corpus directory"),
            std::string::npos)
      << job.error;
  query::QueryJob q;
  q.instance = spec;
  q.leaf_size = 8;
  q.pairs = {{0, 1}};
  const query::QueryOutcome out = query::run_query_job(q, opts, cache, nullptr);
  EXPECT_EQ(out.status, "error");
  EXPECT_NE(out.error.find("cannot create corpus directory"),
            std::string::npos)
      << out.error;
}

// An instance already in the corpus costs its next job one stat and no
// write: a sentinel written over the stored file survives a batch job and
// a query job on the same instance.
TEST(ServeStore, StoredInstanceIsNotWrittenAgain) {
  ScratchDir dir("stored");
  serve::BatchOptions opts;
  opts.corpus_dir = dir.path();
  serve::ResultCache cache({1 << 22, ""});
  const serve::JobSpec spec = demo_jobs()[0];
  ASSERT_EQ(serve::run_single_job(spec, 0, opts, cache).status, "ok");
  const auto entries = io::list_corpus(dir.path());
  ASSERT_EQ(entries.size(), 1u);
  const std::vector<std::uint8_t> sentinel = {'s', 'e', 'n', 't'};
  io::write_file(entries[0].path, sentinel);
  EXPECT_EQ(serve::run_single_job(spec, 1, opts, cache).status, "ok");
  query::QueryJob q;
  q.instance = spec;
  q.leaf_size = 8;
  q.pairs = {{0, 1}};
  EXPECT_EQ(query::run_query_job(q, opts, cache, nullptr).status, "ok");
  EXPECT_EQ(io::read_file(entries[0].path), sentinel);
}

TEST(ServeBatch, UnknownFamilyYieldsErrorRowNotCrash) {
  auto jobs = demo_jobs();
  jobs[2].family = "dodecahedron";
  serve::ResultCache cache({1 << 22, ""});
  const auto rep = serve::run_batch(jobs, {}, cache, nullptr);
  EXPECT_EQ(rep.errors, 1);
  EXPECT_EQ(rep.results[2].status, "error");
  EXPECT_NE(rep.results[2].error.find("dodecahedron"), std::string::npos);
  EXPECT_EQ(rep.ok, rep.jobs - 1);
}

// --------------------------------------------------------- sharded tier --

TEST(ShardedCache, KeysAlwaysMeetInTheirOwningShard) {
  serve::ShardedResultCache cache({1 << 20, 8, ""});
  ASSERT_EQ(cache.shard_count(), 8);
  bool spread = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto key = key_of(i);
    const int s = cache.shard_of(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, cache.shard_count());
    EXPECT_EQ(s, cache.shard_of(key)) << "shard_of must be stable";
    if (s != cache.shard_of(key_of(0))) spread = true;
    cache.get_or_compute(key, [&] { return tiny_artifact(0, 32); });
    // The value lands in exactly the owning shard's memory.
    EXPECT_NE(cache.shard(s).peek(key), nullptr);
    for (int t = 0; t < cache.shard_count(); ++t) {
      if (t != s) {
        EXPECT_EQ(cache.shard(t).peek(key), nullptr);
      }
    }
  }
  EXPECT_TRUE(spread) << "64 keys all hashed to one shard";
}

TEST(ShardedCache, SingleFlightStillDedupsAcrossThreads) {
  serve::ShardedResultCache cache({1 << 20, 4, ""});
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      cache.get_or_compute(key_of(3), [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return tiny_artifact(1, 64);
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.inflight_flights(), 0u);
}

// Concurrent get/put/evict sweep under byte pressure, at 2, 4 and 8
// threads: the shard budget is tight enough that insertions continuously
// evict while other threads hit, miss and disk-load the same key range.
// The invariants: counters stay consistent (every lookup is a hit, a disk
// hit, or a miss), the byte budget holds, and no flight leaks.
TEST(ShardedCache, ConcurrentGetPutEvictUnderBytePressure) {
  const std::size_t value_size = tiny_artifact(0, 64).size();
  for (const int threads : {2, 4, 8}) {
    ScratchDir dir("shardrace");
    // ~3 resident values per shard; 24 distinct keys force evictions.
    serve::ShardedResultCache cache({value_size * 3 * 4, 4, dir.path()});
    constexpr int kKeys = 24;
    constexpr int kOpsPerThread = 400;
    std::atomic<long long> lookups{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t k =
              static_cast<std::uint64_t>((i * 7 + t * 13) % kKeys);
          const auto v = cache.get_or_compute(key_of(k), [&] {
            return tiny_artifact(static_cast<std::uint8_t>(k), 64);
          });
          ASSERT_NE(v, nullptr);
          ++lookups;
        }
      });
    }
    for (auto& t : pool) t.join();

    const auto c = cache.counters();
    EXPECT_EQ(c.hits + c.disk_hits + c.misses, lookups.load())
        << "threads=" << threads;
    EXPECT_LE(cache.size_bytes(), value_size * 3 * 4) << "threads=" << threads;
    EXPECT_GT(c.evictions, 0) << "threads=" << threads;
    EXPECT_EQ(cache.inflight_flights(), 0u) << "threads=" << threads;
    // Each distinct key computes at most once thanks to the disk tier:
    // an evicted entry reloads from disk, never recomputes.
    EXPECT_EQ(c.misses, kKeys) << "threads=" << threads;
  }
}

// Regression: a disk-tier hit must repopulate the shard the key maps to,
// not shard 0 or whichever shard happens to be hot.
TEST(ShardedCache, DiskHitRepopulatesTheOwningShard) {
  ScratchDir dir("sharddisk");
  {
    serve::ShardedResultCache warm({1 << 20, 4, dir.path()});
    for (std::uint64_t i = 0; i < 8; ++i) {
      warm.get_or_compute(key_of(i), [&] { return tiny_artifact(2, 64); });
    }
  }
  serve::ShardedResultCache fresh({1 << 20, 4, dir.path()});
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto key = key_of(i);
    const int owner = fresh.shard_of(key);
    const long long before = fresh.shard(owner).counters().disk_hits;
    ASSERT_NE(fresh.get_or_compute(key, [&] { return tiny_artifact(9, 64); }),
              nullptr);
    // Served from disk (not recomputed: payload still the warm one), and
    // resident exactly in the owning shard.
    EXPECT_EQ(fresh.shard(owner).counters().disk_hits, before + 1)
        << "key " << i;
    EXPECT_NE(fresh.shard(owner).peek(key), nullptr);
    for (int t = 0; t < fresh.shard_count(); ++t) {
      if (t != owner) {
        EXPECT_EQ(fresh.shard(t).peek(key), nullptr);
      }
    }
  }
  EXPECT_EQ(fresh.counters().disk_hits, 8);
  EXPECT_EQ(fresh.counters().misses, 0);
}

TEST(ShardedCache, ThrowingComputeLeaksNoFlightsAndCachesNothing) {
  serve::ShardedResultCache cache({1 << 20, 4, ""});
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(cache.get_or_compute(key_of(11), []() -> std::vector<std::uint8_t> {
      throw std::runtime_error("compute exploded");
    }), std::runtime_error);
  }
  EXPECT_EQ(cache.inflight_flights(), 0u);
  EXPECT_EQ(cache.peek(key_of(11)), nullptr);
  // The key still works once the compute succeeds.
  EXPECT_NE(cache.get_or_compute(key_of(11),
                                 [] { return tiny_artifact(5, 64); }),
            nullptr);
}

TEST(ServeBatch, FaultyJobRecoversAndStaysDeterministic) {
  const auto parse = [] {
    std::istringstream file(
        "--family=grid --n=36 --seed=1 --algo=pipeline\n"
        "--family=grid --n=36 --seed=2 --algo=separator --drop=0.02 "
        "--fault-seed=5\n");
    return serve::parse_job_file(file);
  };
  serve::ResultCache cache1({1 << 22, ""});
  const auto rep1 = serve::run_batch(parse(), {}, cache1, nullptr);
  EXPECT_EQ(rep1.errors, 0);
  EXPECT_EQ(rep1.check_failed, 0);
  EXPECT_NE(rep1.results[1].row.find("\"faults\":true"), std::string::npos);
  // Faulty jobs bypass the cache: only the fault-free job missed — its
  // spanning-tree, separator, and DFS sub-artifacts (the job's stages
  // cache the tree the two of them share).
  EXPECT_EQ(rep1.cache.misses, 3);

  // Deterministic replay, even on a warm cache and more threads.
  serve::BatchOptions par;
  par.threads = 4;
  serve::ResultCache cache2({1 << 22, ""});
  const auto rep2 = serve::run_batch(parse(), par, cache2, nullptr);
  EXPECT_EQ(joined_rows(rep1), joined_rows(rep2));
}

}  // namespace
}  // namespace plansep
