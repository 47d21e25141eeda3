#include "serve/cache.hpp"

#include <algorithm>
#include <filesystem>

#include "core/fingerprint.hpp"
#include "io/artifact.hpp"
#include "util/check.hpp"

namespace plansep::serve {

namespace fs = std::filesystem;

std::uint64_t cache_address(const CacheKey& key) {
  // Fold the algorithm id through the same avalanche primitive as the
  // numeric components, 8 bytes at a time.
  std::uint64_t alg = 0xa16f0a1d00000000ULL ^ key.algorithm.size();
  std::uint64_t word = 0;
  int in_word = 0;
  for (const char c : key.algorithm) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++in_word == 8) {
      alg = core::mix_seed(alg, word);
      word = 0;
      in_word = 0;
    }
  }
  if (in_word > 0) alg = core::mix_seed(alg, word, in_word);
  return core::mix_seed(key.fingerprint, alg, key.config_hash,
                        0x7365727665ULL /* "serve" */);
}

CacheCounters CacheCounters::operator-(const CacheCounters& o) const {
  CacheCounters d;
  d.hits = hits - o.hits;
  d.disk_hits = disk_hits - o.disk_hits;
  d.misses = misses - o.misses;
  d.evictions = evictions - o.evictions;
  d.inserted_bytes = inserted_bytes - o.inserted_bytes;
  d.disk_corrupt = disk_corrupt - o.disk_corrupt;
  d.disk_write_failed = disk_write_failed - o.disk_write_failed;
  d.warmed = warmed - o.warmed;
  return d;
}

ResultCache::ResultCache(Options opts) : opts_(std::move(opts)) {}

std::string ResultCache::disk_path(std::uint64_t address) const {
  return (fs::path(opts_.disk_dir) / (core::fingerprint_hex(address) + ".psa"))
      .string();
}

ResultCache::Value ResultCache::find_locked(std::uint64_t address,
                                            const CacheKey& key) {
  const auto it = index_.find(address);
  if (it == index_.end()) return nullptr;
  if (!(it->second->key == key)) return nullptr;  // address collision
  lru_.splice(lru_.begin(), lru_, it->second);    // touch
  return it->second->value;
}

void ResultCache::insert_locked(std::uint64_t address, const CacheKey& key,
                                Value v) {
  if (index_.count(address) != 0) return;  // racer already inserted
  const std::size_t size = v->size();
  counters_.inserted_bytes += static_cast<long long>(size);
  if (size > opts_.capacity_bytes) return;  // would evict everything else
  lru_.push_front(Entry{address, key, std::move(v)});
  index_[address] = lru_.begin();
  bytes_ += size;
  while (bytes_ > opts_.capacity_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.value->size();
    index_.erase(victim.address);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

ResultCache::Value ResultCache::get_or_compute(const CacheKey& key,
                                               const Compute& compute) {
  const std::uint64_t address = cache_address(key);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (Value v = find_locked(address, key)) {
      ++counters_.hits;
      return v;
    }
    auto [it, inserted] = flights_.try_emplace(address);
    if (inserted) {
      it->second = std::make_shared<Flight>();
      leader = true;
    }
    flight = it->second;
  }

  if (!leader) {
    std::unique_lock<std::mutex> lk(flight->mu);
    flight->cv.wait(lk, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    std::lock_guard<std::mutex> clk(mu_);
    ++counters_.hits;  // coalesced join: served without a compute
    return flight->value;
  }

  // Leader: disk tier first, then the compute, outside the cache lock.
  Value value;
  std::exception_ptr error;
  bool from_disk = false;
  try {
    if (!opts_.disk_dir.empty()) {
      const std::string path = disk_path(address);
      std::error_code ec;
      if (fs::exists(path, ec)) {
        try {
          auto bytes = io::read_file(path);
          io::parse(bytes);  // CRC-verify before trusting the disk tier
          value = std::make_shared<const std::vector<std::uint8_t>>(
              std::move(bytes));
          from_disk = true;
        } catch (const io::FormatError&) {
          std::lock_guard<std::mutex> lk(mu_);
          ++counters_.disk_corrupt;  // fall through to a fresh compute
        }
      }
    }
    if (value == nullptr) {
      value = std::make_shared<const std::vector<std::uint8_t>>(compute());
      if (!opts_.disk_dir.empty()) {
        std::error_code ec;
        fs::create_directories(opts_.disk_dir, ec);
        try {
          io::write_file(disk_path(address), *value);
        } catch (const io::FormatError&) {
          std::lock_guard<std::mutex> lk(mu_);
          ++counters_.disk_write_failed;  // the disk tier is best-effort
        }
      }
    }
  } catch (...) {
    error = std::current_exception();
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (error == nullptr) {
      if (from_disk) {
        ++counters_.disk_hits;
      } else {
        ++counters_.misses;
      }
      insert_locked(address, key, value);
    }
    flights_.erase(address);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->done = true;
    flight->value = value;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return value;
}

bool ResultCache::warm(const CacheKey& key) {
  const std::uint64_t address = cache_address(key);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (find_locked(address, key) != nullptr) return true;
  }
  if (opts_.disk_dir.empty()) return false;
  const std::string path = disk_path(address);
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  Value value;
  try {
    auto bytes = io::read_file(path);
    io::parse(bytes);  // CRC-verify before trusting the disk tier
    value = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  } catch (const io::FormatError&) {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.disk_corrupt;
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (find_locked(address, key) == nullptr) {
    insert_locked(address, key, std::move(value));
    ++counters_.warmed;
  }
  return true;
}

ResultCache::Value ResultCache::peek(const CacheKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(cache_address(key));
  if (it == index_.end() || !(it->second->key == key)) return nullptr;
  return it->second->value;
}

std::size_t ResultCache::size_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

CacheCounters ResultCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t ResultCache::inflight_flights() const {
  std::lock_guard<std::mutex> lk(mu_);
  return flights_.size();
}

// -------------------------------------------------------- sharded tier --

ShardedResultCache::ShardedResultCache(Options opts) : opts_(std::move(opts)) {
  const int n = std::max(1, opts_.shards);
  opts_.shards = n;
  const std::size_t slice =
      std::max<std::size_t>(1, opts_.capacity_bytes / static_cast<std::size_t>(n));
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<ResultCache>(
        ResultCache::Options{slice, opts_.disk_dir}));
  }
}

int ShardedResultCache::shard_of(const CacheKey& key) const {
  // The address is avalanche-mixed, so any bit slice selects uniformly;
  // the high bits keep shard choice independent of the low bits each
  // shard's unordered_map buckets on.
  return static_cast<int>((cache_address(key) >> 48) %
                          static_cast<std::uint64_t>(shards_.size()));
}

ShardedResultCache::Value ShardedResultCache::get_or_compute(
    const CacheKey& key, const Compute& compute) {
  return shards_[static_cast<std::size_t>(shard_of(key))]->get_or_compute(
      key, compute);
}

bool ShardedResultCache::warm(const CacheKey& key) {
  return shards_[static_cast<std::size_t>(shard_of(key))]->warm(key);
}

ShardedResultCache::Value ShardedResultCache::peek(const CacheKey& key) const {
  return shards_[static_cast<std::size_t>(shard_of(key))]->peek(key);
}

std::size_t ShardedResultCache::size_bytes() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->size_bytes();
  return total;
}

std::size_t ShardedResultCache::entries() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->entries();
  return total;
}

CacheCounters ShardedResultCache::counters() const {
  CacheCounters sum;
  for (const auto& s : shards_) {
    const CacheCounters c = s->counters();
    sum.hits += c.hits;
    sum.disk_hits += c.disk_hits;
    sum.misses += c.misses;
    sum.evictions += c.evictions;
    sum.inserted_bytes += c.inserted_bytes;
    sum.disk_corrupt += c.disk_corrupt;
    sum.disk_write_failed += c.disk_write_failed;
    sum.warmed += c.warmed;
  }
  return sum;
}

std::size_t ShardedResultCache::inflight_flights() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->inflight_flights();
  return total;
}

}  // namespace plansep::serve
