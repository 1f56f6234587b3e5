// dnsv-cache: operator CLI for the content-addressed artifact store
// (docs/INCREMENTAL.md).
//
//   dnsv-cache [--store=DIR] ls              list every artifact
//   dnsv-cache [--store=DIR] stats           per-kind counts and bytes
//   dnsv-cache [--store=DIR] gc --max-bytes=N  evict LRU artifacts down to N
//   dnsv-cache [--store=DIR] clear           remove every artifact
//   dnsv-cache --selftest                    exercise all commands on a
//                                            temporary store (the ctest smoke)
//
// The store directory comes from --store, else DNSV_STORE_DIR. Every command
// is safe against concurrent verifiers: GC and clear only unlink files, and a
// verifier that loses an artifact under it just recomputes cold.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/store/store.h"
#include "src/support/strings.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dnsv-cache [--store=DIR] <command>\n"
               "  ls                    list artifacts (kind, bytes, key)\n"
               "  stats                 per-kind totals and corruption count\n"
               "  gc --max-bytes=N      evict least-recently-used down to N bytes\n"
               "  clear                 remove every artifact\n"
               "  --selftest            run the built-in smoke on a temp store\n");
  return 2;
}

int RunLs(dnsv::ArtifactStore* store) {
  std::vector<dnsv::ArtifactStore::Entry> entries = store->List();
  for (const dnsv::ArtifactStore::Entry& entry : entries) {
    if (entry.corrupt) {
      std::printf("%-10s %10llu  [corrupt] %s\n", entry.kind.c_str(),
                  (unsigned long long)entry.bytes, entry.path.c_str());
    } else {
      std::printf("%-10s %10llu  %s\n", entry.kind.c_str(), (unsigned long long)entry.bytes,
                  entry.key.c_str());
    }
  }
  std::printf("%zu artifact(s)\n", entries.size());
  return 0;
}

int RunStats(dnsv::ArtifactStore* store) {
  dnsv::ArtifactStore::StoreStats stats = store->GetStats();
  for (const auto& [kind, ks] : stats.kinds) {
    std::printf("%-10s %6lld artifact(s) %12lld bytes\n", kind.c_str(),
                (long long)ks.count, (long long)ks.bytes);
  }
  std::printf("total      %6lld artifact(s) %12lld bytes, %lld corrupt\n",
              (long long)stats.total_count, (long long)stats.total_bytes,
              (long long)stats.corrupt_count);
  return 0;
}

int RunGc(dnsv::ArtifactStore* store, int64_t max_bytes) {
  int64_t removed = store->GC(max_bytes);
  dnsv::ArtifactStore::StoreStats stats = store->GetStats();
  std::printf("gc: removed %lld artifact(s), %lld bytes remain\n", (long long)removed,
              (long long)stats.total_bytes);
  return 0;
}

int RunClear(dnsv::ArtifactStore* store) {
  int64_t removed = store->Clear();
  std::printf("clear: removed %lld artifact(s)\n", (long long)removed);
  return 0;
}

#define SELFTEST_CHECK(cond)                                                  \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "dnsv-cache selftest FAILED at %s:%d: %s\n",       \
                   __FILE__, __LINE__, #cond);                                \
      return 1;                                                               \
    }                                                                         \
  } while (0)

int RunSelftest() {
  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() /
                  ("dnsv-cache-selftest-" + std::to_string(::getpid()));
  fs::remove_all(root);
  {
    dnsv::ArtifactStore store(root.string());
    // Seed a few artifacts across two kinds.
    SELFTEST_CHECK(store.Put("report", "report|v1|a", std::string(100, 'x')));
    SELFTEST_CHECK(store.Put("report", "report|v1|b", std::string(200, 'y')));
    SELFTEST_CHECK(store.Put("qcache", "qcache|v1|shard0", std::string(50, 'z')));

    SELFTEST_CHECK(RunLs(&store) == 0);
    SELFTEST_CHECK(RunStats(&store) == 0);
    dnsv::ArtifactStore::StoreStats stats = store.GetStats();
    SELFTEST_CHECK(stats.total_count == 3);
    SELFTEST_CHECK(stats.corrupt_count == 0);
    SELFTEST_CHECK(stats.kinds.at("report").count == 2);

    // Refresh one artifact's LRU clock, then GC down hard: the refreshed
    // artifact must be the survivor-most candidate.
    SELFTEST_CHECK(store.Get("report", "report|v1|b").has_value());
    SELFTEST_CHECK(RunGc(&store, 300) == 0);
    stats = store.GetStats();
    SELFTEST_CHECK(stats.total_bytes <= 300);
    SELFTEST_CHECK(store.Get("report", "report|v1|b").has_value());

    SELFTEST_CHECK(RunClear(&store) == 0);
    SELFTEST_CHECK(store.GetStats().total_count == 0);
    SELFTEST_CHECK(!store.Get("report", "report|v1|b").has_value());
  }
  fs::remove_all(root);
  std::printf("dnsv-cache selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  std::string command;
  int64_t max_bytes = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      return RunSelftest();
    } else if (dnsv::StartsWith(arg, "--store=")) {
      store_dir = arg.substr(std::strlen("--store="));
    } else if (dnsv::StartsWith(arg, "--max-bytes=")) {
      if (!dnsv::ParseInt64(arg.substr(std::strlen("--max-bytes=")), &max_bytes) ||
          max_bytes < 0) {
        std::fprintf(stderr, "dnsv-cache: bad --max-bytes value\n");
        return 2;
      }
    } else if (command.empty() && !dnsv::StartsWith(arg, "--")) {
      command = arg;
    } else {
      return Usage();
    }
  }
  if (command.empty()) {
    return Usage();
  }
  if (store_dir.empty()) {
    const char* env = std::getenv("DNSV_STORE_DIR");
    if (env != nullptr) store_dir = env;
  }
  if (store_dir.empty()) {
    std::fprintf(stderr, "dnsv-cache: no store (pass --store=DIR or set DNSV_STORE_DIR)\n");
    return 2;
  }
  dnsv::ArtifactStore store(store_dir);
  if (command == "ls") return RunLs(&store);
  if (command == "stats") return RunStats(&store);
  if (command == "clear") return RunClear(&store);
  if (command == "gc") {
    if (max_bytes < 0) {
      std::fprintf(stderr, "dnsv-cache: gc requires --max-bytes=N\n");
      return 2;
    }
    return RunGc(&store, max_bytes);
  }
  return Usage();
}
