// Content-addressed on-disk artifact store (docs/INCREMENTAL.md).
//
// The store holds only results a later run reads back to skip work: full
// VerificationReports (`report`), the solver query cache's verdicts
// (`qcache`), and absir-codegen's generated code (`codegen`). Each is an
// artifact addressed by a self-describing content key that bakes in a
// schema version plus hashes of everything the artifact depends on, so a new
// engine version, a changed zone, changed options, or a bumped serialization
// format all miss cleanly; nothing is ever invalidated in place.
//
// Corruption policy: a Get that finds anything other than a byte-perfect
// artifact — wrong magic, wrong format version, key mismatch, truncated or
// checksum-failing payload — counts it as corrupt and reports a miss. The
// caller then recomputes cold; a damaged store can cost time but never an
// answer (tests/store/store_tamper_test.cc).
//
// Layout: <root>/<kind>/<fnv1a64(key) as 16 hex>.art, one artifact per file.
// Writes go through a temp file + rename, so concurrent writers of the same
// key race to an identical result and readers never observe a torn file.
#ifndef DNSV_STORE_STORE_H_
#define DNSV_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dnsv {

class ArtifactStore {
 public:
  // Creates <root> (and per-kind subdirectories lazily) on first write.
  explicit ArtifactStore(std::string root);
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  // The store named by DNSV_STORE_DIR, or nullptr when the variable is
  // unset/empty. One instance per directory per process (the instances are
  // never destroyed: pipeline runs may outlive static teardown order).
  static ArtifactStore* FromEnv();

  const std::string& root() const { return root_; }

  // Writes `payload` under (kind, key), atomically replacing any previous
  // artifact. Returns false on I/O failure (callers treat the store as
  // best-effort; verification correctness never depends on a write landing).
  bool Put(const std::string& kind, const std::string& key, const std::string& payload);

  // Returns the payload iff a well-formed artifact whose recorded key equals
  // `key` exists; anything else is a miss. A hit refreshes the file's mtime
  // (the GC's LRU clock).
  std::optional<std::string> Get(const std::string& kind, const std::string& key);

  struct Entry {
    std::string kind;
    std::string key;        // empty when the file is corrupt
    uint64_t bytes = 0;     // file size on disk
    int64_t mtime_ns = 0;   // last-use time (Get refreshes it)
    std::string path;
    bool corrupt = false;
  };
  // Every artifact file under the root, corrupt ones included, sorted by
  // (kind, path) for stable output.
  std::vector<Entry> List();

  struct KindStats {
    int64_t count = 0;
    int64_t bytes = 0;
  };
  struct StoreStats {
    std::map<std::string, KindStats> kinds;
    int64_t total_count = 0;
    int64_t total_bytes = 0;
    int64_t corrupt_count = 0;
  };
  StoreStats GetStats();

  // Deletes least-recently-used artifacts (by mtime) until the store's total
  // size is <= max_bytes; corrupt files go first. Returns files removed.
  int64_t GC(int64_t max_bytes);

  // Removes every artifact (the per-kind directories stay).
  int64_t Clear();

  // Process-local access counters (not persisted).
  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t writes = 0;
    int64_t corrupt_rejected = 0;  // subset of misses
    int64_t write_failures = 0;
  };
  Counters counters() const;

 private:
  std::string PathFor(const std::string& kind, const std::string& key) const;
  // Reads + verifies one artifact file; nullopt (and *corrupt when the file
  // exists but is damaged) on any defect.
  std::optional<std::string> ReadVerified(const std::string& path, const std::string& key,
                                          bool* corrupt, std::string* stored_key);

  std::string root_;
  mutable std::mutex mu_;  // guards counters_ and temp-name generation
  Counters counters_;
  uint64_t temp_seq_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_STORE_STORE_H_
