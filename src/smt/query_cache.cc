#include "src/smt/query_cache.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string_view>

#include "src/support/logging.h"

namespace dnsv {

QueryCache* QueryCache::Global() {
  static QueryCache* cache = new QueryCache();  // never destroyed: workers may
  return cache;                                 // outlive static teardown order
}

QueryCache::Shard& QueryCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

bool QueryCache::Lookup(const std::string& key, SatResult* verdict, bool* from_disk) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      *verdict = it->second.verdict;
      if (from_disk != nullptr) *from_disk = it->second.from_disk;
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (it->second.from_disk) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
  }
  if (from_disk != nullptr) *from_disk = false;
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void QueryCache::Insert(const std::string& key, SatResult verdict) {
  if (verdict == SatResult::kUnknown) {
    return;  // unknowns are transient (timeouts); never memoize them
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.emplace(key, Entry{verdict, /*from_disk=*/false});
  if (inserted) {
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool QueryCache::LoadPersisted(const std::string& key, SatResult verdict) {
  if (verdict == SatResult::kUnknown) {
    return false;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.emplace(key, Entry{verdict, /*from_disk=*/true});
  return inserted;
}

std::vector<std::pair<std::string, SatResult>> QueryCache::Snapshot() const {
  std::vector<std::pair<std::string, SatResult>> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard&>(shard).mu);
    for (const auto& [key, entry] : shard.map) {
      entries.emplace_back(key, entry.verdict);
    }
  }
  return entries;
}

bool QueryCache::MarkLoadedFrom(const std::string& store_root) {
  std::lock_guard<std::mutex> lock(loaded_mu_);
  for (const std::string& root : loaded_roots_) {
    if (root == store_root) return false;
  }
  loaded_roots_.push_back(store_root);
  return true;
}

void QueryCache::SetBaseCounters(int64_t hits, int64_t misses) {
  base_hits_.store(hits, std::memory_order_relaxed);
  base_misses_.store(misses, std::memory_order_relaxed);
}

QueryCache::Stats QueryCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(const_cast<Shard&>(shard).mu);
    stats.entries += static_cast<int64_t>(shard.map.size());
    for (const auto& [key, entry] : shard.map) {
      if (entry.from_disk) ++stats.entries_from_disk;
    }
  }
  stats.cumulative_hits = stats.hits + base_hits_.load(std::memory_order_relaxed);
  stats.cumulative_misses = stats.misses + base_misses_.load(std::memory_order_relaxed);
  return stats;
}

void QueryCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  {
    std::lock_guard<std::mutex> lock(loaded_mu_);
    loaded_roots_.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  base_hits_.store(0, std::memory_order_relaxed);
  base_misses_.store(0, std::memory_order_relaxed);
}

SolverConfig ApplySolverEnvOverride(SolverConfig base) {
  const char* force = std::getenv("DNSV_SOLVER_FORCE");
  if (force == nullptr) {
    return base;
  }
  std::string_view value(force);
  if (value == "direct" || value == "off") {
    base.layering = SolverLayering::kDirect;
    base.shadow_validate = false;
    base.shadow_fatal = false;
  } else if (value == "presolve" || value == "cache+presolve") {
    base.layering = SolverLayering::kCachePresolve;
  } else if (value == "shadow") {
    // The CI stale-cache gate: full stack, every cache hit and presolver
    // verdict re-checked on Z3, any disagreement is fatal.
    base.layering = SolverLayering::kCachePresolve;
    base.shadow_validate = true;
    base.shadow_fatal = true;
  } else {
    // A typo must not quietly run the default stack: the shadow gate would
    // then pass without validating anything.
    DNSV_LOG(kError) << "DNSV_SOLVER_FORCE=\"" << value
                     << "\" is not one of direct|off|presolve|cache+presolve|shadow";
    std::abort();
  }
  return base;
}

}  // namespace dnsv
