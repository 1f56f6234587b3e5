// Unit tests for the lock-free per-worker stats blocks (src/server/stats.h).
#include "src/server/stats.h"

#include <string>

#include <gtest/gtest.h>

namespace dnsv {
namespace {

TEST(ServerStatsTest, LatencyBucketsArePowerOfTwoRanges) {
  ServerStats stats;
  stats.RecordLatencyUs(0);    // bucket 0: [0, 1)
  stats.RecordLatencyUs(1);    // bucket 1: [1, 2)
  stats.RecordLatencyUs(2);    // bucket 2: [2, 4)
  stats.RecordLatencyUs(3);    // bucket 2
  stats.RecordLatencyUs(4);    // bucket 3: [4, 8)
  stats.RecordLatencyUs(1023);  // bucket 10: [512, 1024)
  stats.RecordLatencyUs(1024);  // bucket 11: [1024, 2048)
  stats.RecordLatencyUs(~uint64_t{0});  // clamps into the open-ended top bucket
  EXPECT_EQ(stats.latency[0].load(), 1u);
  EXPECT_EQ(stats.latency[1].load(), 1u);
  EXPECT_EQ(stats.latency[2].load(), 2u);
  EXPECT_EQ(stats.latency[3].load(), 1u);
  EXPECT_EQ(stats.latency[10].load(), 1u);
  EXPECT_EQ(stats.latency[11].load(), 1u);
  EXPECT_EQ(stats.latency[kLatencyBuckets - 1].load(), 1u);
}

TEST(ServerStatsTest, PercentilesComeFromBucketUpperBounds) {
  StatsSnapshot snapshot;
  EXPECT_EQ(snapshot.LatencyPercentileUs(0.99), 0u);  // empty: no data

  // 90 fast services in [4, 8) µs, 10 slow ones in [1024, 2048) µs.
  snapshot.latency[3] = 90;
  snapshot.latency[11] = 10;
  EXPECT_EQ(snapshot.LatencyPercentileUs(0.50), 8u);
  EXPECT_EQ(snapshot.LatencyPercentileUs(0.90), 8u);
  EXPECT_EQ(snapshot.LatencyPercentileUs(0.99), 2048u);
  EXPECT_EQ(snapshot.LatencyPercentileUs(1.0), 2048u);
}

TEST(ServerStatsTest, AggregateFoldsWorkerBlocks) {
  ServerStats a;
  ServerStats b;
  a.udp_queries = 10;
  a.parse_failures = 2;
  a.CountRcode(0);
  a.CountRcode(3);
  a.cache_hits = 4;
  a.cache_misses = 6;
  b.udp_queries = 5;
  b.tcp_queries = 7;
  b.truncated_responses = 1;
  b.cache_hits = 1;
  b.cache_inserts = 5;
  b.cache_stale = 2;
  b.cache_evictions = 3;
  b.CountRcode(0);

  StatsSnapshot snapshot;
  snapshot.Add(a);
  snapshot.Add(b);
  EXPECT_EQ(snapshot.udp_queries, 15u);
  EXPECT_EQ(snapshot.tcp_queries, 7u);
  EXPECT_EQ(snapshot.queries(), 22u);
  EXPECT_EQ(snapshot.parse_failures, 2u);
  EXPECT_EQ(snapshot.truncated_responses, 1u);
  EXPECT_EQ(snapshot.cache_hits, 5u);
  EXPECT_EQ(snapshot.cache_misses, 6u);
  EXPECT_EQ(snapshot.cache_inserts, 5u);
  EXPECT_EQ(snapshot.cache_stale, 2u);
  EXPECT_EQ(snapshot.cache_evictions, 3u);
  EXPECT_EQ(snapshot.rcodes[0], 2u);
  EXPECT_EQ(snapshot.rcodes[3], 1u);
}

TEST(ServerStatsTest, JsonCarriesEveryCounterAndOnlyNonZeroRcodes) {
  StatsSnapshot snapshot;
  snapshot.generation = 3;
  snapshot.udp_queries = 41;
  snapshot.tcp_queries = 1;
  snapshot.truncated_responses = 2;
  snapshot.rcodes[0] = 40;
  snapshot.rcodes[2] = 2;
  snapshot.latency[3] = 42;
  snapshot.cache_hits = 30;
  snapshot.cache_misses = 11;
  snapshot.cache_stale = 4;
  snapshot.cache_inserts = 9;
  snapshot.cache_evictions = 1;
  snapshot.udp_rx_drops = 5;
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"generation\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"udp_queries\": 41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tcp_queries\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"truncated_responses\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits\": 30"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_misses\": 11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_stale\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_inserts\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_evictions\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"udp_rx_drops\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rcodes\": {\"0\": 40, \"2\": 2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\": 8"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"3\":"), std::string::npos) << "zero rcodes must be omitted: " << json;
}

}  // namespace
}  // namespace dnsv
