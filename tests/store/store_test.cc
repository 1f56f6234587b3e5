// ArtifactStore container semantics: round-trips, miss/corruption policy,
// LRU GC, counters, and the DNSV_STORE_DIR binding.
#include "src/store/store.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace dnsv {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("dnsv-store-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string PathOf(ArtifactStore* store, const std::string& key) {
    for (const ArtifactStore::Entry& entry : store->List()) {
      if (entry.key == key) return entry.path;
    }
    return "";
  }

  fs::path root_;
};

TEST_F(StoreTest, PutGetRoundtrip) {
  ArtifactStore store(root_.string());
  const std::string payload(1000, '\x7f');
  ASSERT_TRUE(store.Put("report", "report|v1|abc", payload));
  std::optional<std::string> got = store.Get("report", "report|v1|abc");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(store.Get("report", "report|v1|abc").has_value());
}

TEST_F(StoreTest, AbsentKeyIsAMiss) {
  ArtifactStore store(root_.string());
  EXPECT_FALSE(store.Get("report", "no-such-key").has_value());
  EXPECT_FALSE(store.Get("qcache", "no-such-key").has_value());
  ArtifactStore::Counters counters = store.counters();
  EXPECT_EQ(counters.hits, 0);
  EXPECT_EQ(counters.misses, 2);
  EXPECT_EQ(counters.corrupt_rejected, 0);
}

TEST_F(StoreTest, OverwriteReplacesPayload) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "k", "first"));
  ASSERT_TRUE(store.Put("report", "k", "second"));
  std::optional<std::string> got = store.Get("report", "k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "second");
  EXPECT_EQ(store.GetStats().total_count, 1);
}

TEST_F(StoreTest, EmptyPayloadRoundtrips) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "report|v1|x", ""));
  std::optional<std::string> got = store.Get("report", "report|v1|x");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "");
}

TEST_F(StoreTest, BinaryPayloadRoundtrips) {
  ArtifactStore store(root_.string());
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  payload += '\n';
  payload += payload;
  ASSERT_TRUE(store.Put("qcache", "qcache|v1|bin", payload));
  std::optional<std::string> got = store.Get("qcache", "qcache|v1|bin");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

// A file whose recorded key differs from the requested key is a corrupt
// artifact, not a hit: copy key A's file over key B's path and B must miss.
TEST_F(StoreTest, StoredKeyMismatchIsCorrupt) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "key-a", "payload-a"));
  ASSERT_TRUE(store.Put("report", "key-b", "payload-b"));
  const std::string path_a = PathOf(&store, "key-a");
  const std::string path_b = PathOf(&store, "key-b");
  ASSERT_FALSE(path_a.empty());
  ASSERT_FALSE(path_b.empty());
  fs::copy_file(path_a, path_b, fs::copy_options::overwrite_existing);

  EXPECT_FALSE(store.Get("report", "key-b").has_value());
  EXPECT_GE(store.counters().corrupt_rejected, 1);
  // Key A itself is untouched.
  EXPECT_TRUE(store.Get("report", "key-a").has_value());
}

TEST_F(StoreTest, TruncatedFileIsCorruptAndListedAsSuch) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "k", std::string(500, 'p')));
  const std::string path = PathOf(&store, "k");
  ASSERT_FALSE(path.empty());
  fs::resize_file(path, fs::file_size(path) / 2);

  EXPECT_FALSE(store.Get("report", "k").has_value());
  EXPECT_GE(store.counters().corrupt_rejected, 1);
  ArtifactStore::StoreStats stats = store.GetStats();
  EXPECT_EQ(stats.corrupt_count, 1);
  bool listed_corrupt = false;
  for (const ArtifactStore::Entry& entry : store.List()) {
    listed_corrupt |= entry.corrupt;
  }
  EXPECT_TRUE(listed_corrupt);
}

TEST_F(StoreTest, GcEvictsLeastRecentlyUsedAndCorruptFirst) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "old", std::string(100, 'a')));
  ASSERT_TRUE(store.Put("report", "hot", std::string(100, 'b')));
  ASSERT_TRUE(store.Put("report", "damaged", std::string(100, 'c')));
  const std::string damaged_path = PathOf(&store, "damaged");
  ASSERT_FALSE(damaged_path.empty());
  fs::resize_file(damaged_path, 10);

  // Refresh "hot"'s LRU clock, then shrink: the corrupt file must go first
  // and "hot" must survive "old".
  ASSERT_TRUE(store.Get("report", "hot").has_value());
  store.GC(200);
  EXPECT_TRUE(store.Get("report", "hot").has_value());
  EXPECT_FALSE(fs::exists(damaged_path));
  EXPECT_LE(store.GetStats().total_bytes, 200);
}

TEST_F(StoreTest, ClearRemovesEverything) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "a", "x"));
  ASSERT_TRUE(store.Put("qcache", "b", "y"));
  EXPECT_EQ(store.Clear(), 2);
  EXPECT_EQ(store.GetStats().total_count, 0);
  EXPECT_FALSE(store.Get("report", "a").has_value());
}

TEST_F(StoreTest, StatsGroupByKind) {
  ArtifactStore store(root_.string());
  ASSERT_TRUE(store.Put("report", "a", std::string(10, 'x')));
  ASSERT_TRUE(store.Put("report", "b", std::string(20, 'x')));
  ASSERT_TRUE(store.Put("qcache", "c", std::string(30, 'x')));
  ArtifactStore::StoreStats stats = store.GetStats();
  EXPECT_EQ(stats.total_count, 3);
  EXPECT_EQ(stats.kinds.at("report").count, 2);
  EXPECT_EQ(stats.kinds.at("qcache").count, 1);
  EXPECT_GT(stats.kinds.at("report").bytes, stats.kinds.at("qcache").bytes - 30);
}

TEST_F(StoreTest, FromEnvBindsDnsvStoreDir) {
  ::setenv("DNSV_STORE_DIR", root_.string().c_str(), 1);
  ArtifactStore* store = ArtifactStore::FromEnv();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->root(), root_.string());
  ::unsetenv("DNSV_STORE_DIR");
  EXPECT_EQ(ArtifactStore::FromEnv(), nullptr);
}

}  // namespace
}  // namespace dnsv
