// Persistence for the solver QueryCache (src/smt/query_cache.h).
//
// Cached sat/unsat verdicts are keyed by canonical query strings that are
// self-contained (no arena handles), so they are safe to share not only
// across sessions but across processes: a warm store lets a fresh run answer
// most feasibility checks without ever constructing a Z3 solver for them.
//
// Entries are spread over a fixed number of shard artifacts (by FNV of the
// canonical key, independent of the in-memory shard function) to keep files
// small enough for cheap rewrite-on-flush. Flush writes a union of disk and
// fresh entries when the cache was loaded first; verdict conflicts cannot
// happen (all writers agree by soundness).
#ifndef DNSV_STORE_QCACHE_IO_H_
#define DNSV_STORE_QCACHE_IO_H_

#include <cstdint>

namespace dnsv {

class ArtifactStore;
class QueryCache;

// Loads every persisted verdict into `cache` (insert-if-absent, marked as
// disk-loaded). Returns the number of entries loaded; corrupt shards are
// skipped (they simply load nothing).
int64_t LoadQueryCache(ArtifactStore* store, QueryCache* cache);

// Writes the cache's current entries (memory + previously loaded) back to
// the store. Returns entries written.
int64_t FlushQueryCache(ArtifactStore* store, QueryCache* cache);

}  // namespace dnsv

#endif  // DNSV_STORE_QCACHE_IO_H_
