// Process-wide, mutex-sharded sat/unsat verdict cache keyed on canonical
// query strings (src/smt/canon.h).
//
// One instance is shared by every parallel exploration worker and across all
// six engine versions: the spec side of the comparison is identical for every
// version and the engines share most of their library layers, so the same
// canonical feasibility query recurs constantly (KLEE makes the same
// observation for its counterexample cache). Keys are self-contained strings
// — no Term handles, no arena pointers — so sharing across sessions whose
// arenas are completely unrelated is sound by construction. Self-contained
// keys also make the entries persistable: the artifact store (src/store)
// reloads them across processes via LoadPersisted/Snapshot, and entries
// carry their origin (memory vs disk) so hits can be attributed.
//
// The cache deliberately stores verdicts only, never models: a layered
// session that needs a model after a cached kSat replays the query on its
// own Z3 backend (see backend.h), keeping decoded counterexamples
// byte-identical to an unlayered run. kUnknown verdicts are never cached.
#ifndef DNSV_SMT_QUERY_CACHE_H_
#define DNSV_SMT_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/smt/backend.h"

namespace dnsv {

class QueryCache {
 public:
  QueryCache() = default;
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // The process-wide instance used when SolverConfig.cache is null.
  static QueryCache* Global();

  // Returns true and fills *verdict on a hit. Counts a hit or a miss. When
  // `from_disk` is non-null it reports whether the entry was loaded from the
  // artifact store rather than solved in this process.
  bool Lookup(const std::string& key, SatResult* verdict, bool* from_disk = nullptr);

  // Records a verdict; kUnknown is ignored. First writer wins (all writers
  // agree by soundness, so overwriting would be equivalent anyway).
  void Insert(const std::string& key, SatResult verdict);

  // Insert-if-absent for entries reloaded from the artifact store; the entry
  // is marked disk-originated. Returns true when the entry was new. kUnknown
  // is rejected (a tampered store file must not plant unknowns).
  bool LoadPersisted(const std::string& key, SatResult verdict);

  // Every entry (memory- and disk-originated), for persistence. Order is
  // unspecified; the store sorts before writing.
  std::vector<std::pair<std::string, SatResult>> Snapshot() const;

  // Marks this cache as having loaded the persisted entries rooted at
  // `store_root`; returns false when that root was already loaded (so each
  // store is imported at most once per cache). Clear() forgets the marks.
  bool MarkLoadedFrom(const std::string& store_root);

  struct Stats {
    int64_t hits = 0;       // this process
    int64_t misses = 0;     // this process
    int64_t disk_hits = 0;  // subset of hits served by disk-loaded entries
    int64_t insertions = 0;
    int64_t entries = 0;
    int64_t entries_from_disk = 0;
  };
  Stats stats() const;

  // Drops every entry and resets the counters (tests and benchmarks).
  void Clear();

 private:
  static constexpr size_t kShards = 16;
  struct Entry {
    SatResult verdict = SatResult::kUnknown;
    bool from_disk = false;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };
  Shard& ShardFor(const std::string& key);

  Shard shards_[kShards];
  std::mutex loaded_mu_;
  std::vector<std::string> loaded_roots_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> disk_hits_{0};
  std::atomic<int64_t> insertions_{0};
};

}  // namespace dnsv

#endif  // DNSV_SMT_QUERY_CACHE_H_
