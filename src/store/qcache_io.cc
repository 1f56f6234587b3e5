#include "src/store/qcache_io.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/smt/query_cache.h"
#include "src/store/codec.h"
#include "src/store/store.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

constexpr int kPersistShards = 16;
constexpr char kKind[] = "qcache";
// Schema version for the qcache artifacts; baked into every key.
constexpr char kSchema[] = "v1";

std::string ShardKey(int shard) { return StrCat(kKind, "|", kSchema, "|shard", shard); }

int ShardOf(const std::string& canonical_key) {
  // Deliberately NOT the in-memory shard function (std::hash is
  // implementation-defined); this one must be stable across builds.
  return static_cast<int>(Fnv1a64(canonical_key) % kPersistShards);
}

}  // namespace

int64_t LoadQueryCache(ArtifactStore* store, QueryCache* cache) {
  int64_t loaded = 0;
  for (int shard = 0; shard < kPersistShards; ++shard) {
    std::optional<std::string> payload = store->Get(kKind, ShardKey(shard));
    if (!payload.has_value()) continue;
    ArtifactDecoder dec(*payload);
    dec.Tag("qcache-shard");
    int64_t count = dec.Int();
    std::vector<std::pair<std::string, SatResult>> entries;
    for (int64_t i = 0; dec.ok() && i < count; ++i) {
      std::string key = dec.Str();
      int64_t verdict = dec.Int();
      if (!dec.ok() || (verdict != 0 && verdict != 1)) break;
      entries.emplace_back(std::move(key),
                           verdict == 0 ? SatResult::kSat : SatResult::kUnsat);
    }
    if (!dec.ok() || !dec.AtEnd() ||
        entries.size() != static_cast<size_t>(count)) {
      continue;  // damaged shard: load nothing from it, fall back to solving
    }
    for (auto& [key, verdict] : entries) {
      if (cache->LoadPersisted(key, verdict)) ++loaded;
    }
  }
  return loaded;
}

int64_t FlushQueryCache(ArtifactStore* store, QueryCache* cache) {
  std::vector<std::pair<std::string, SatResult>> entries = cache->Snapshot();
  std::vector<std::vector<const std::pair<std::string, SatResult>*>> shards(kPersistShards);
  for (const auto& entry : entries) {
    shards[ShardOf(entry.first)].push_back(&entry);
  }
  int64_t written = 0;
  for (int shard = 0; shard < kPersistShards; ++shard) {
    if (shards[shard].empty()) continue;
    // Stable order within the shard: byte-identical files for equal content.
    std::sort(shards[shard].begin(), shards[shard].end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    ArtifactEncoder enc;
    enc.Tag("qcache-shard");
    enc.Int(static_cast<int64_t>(shards[shard].size()));
    for (const auto* entry : shards[shard]) {
      enc.Str(entry->first);
      enc.Int(entry->second == SatResult::kSat ? 0 : 1);
    }
    if (store->Put(kKind, ShardKey(shard), enc.Take())) {
      written += static_cast<int64_t>(shards[shard].size());
    }
  }
  return written;
}

}  // namespace dnsv
