// Per-worker serving statistics (docs/SERVER.md §stats).
//
// Each worker thread owns exactly one ServerStats block and bumps it with
// relaxed atomics — no locks, no cross-thread contention on the hot path
// (the blocks are cache-line aligned so two workers never share a line).
// Readers (the stats endpoint, tests, the bench) fold any number of blocks
// into a plain StatsSnapshot; the fold is racy against in-flight increments
// by design, which for monotonic counters only means "a snapshot is a point
// somewhere between two packets".
#ifndef DNSV_SERVER_STATS_H_
#define DNSV_SERVER_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace dnsv {

// Latency histogram: bucket i counts services that took [2^(i-1), 2^i) µs
// (bucket 0 is [0, 1) µs). Fixed power-of-two buckets keep recording to a
// bit-scan plus one relaxed increment; the top bucket is open-ended.
inline constexpr int kLatencyBuckets = 24;  // covers up to ~8.4 s

struct alignas(64) ServerStats {
  std::atomic<uint64_t> udp_queries{0};
  std::atomic<uint64_t> tcp_queries{0};
  std::atomic<uint64_t> parse_failures{0};    // FORMERR sent
  std::atomic<uint64_t> encode_failures{0};   // encoder refused the response
  std::atomic<uint64_t> servfail_fallbacks{0};  // static SERVFAIL template sent
  std::atomic<uint64_t> engine_panics{0};     // data plane panicked (SERVFAIL)
  std::atomic<uint64_t> unencodable_qnames{0};  // qname label got no code (SERVFAIL)
  std::atomic<uint64_t> truncated_responses{0};  // TC=1 sent (UDP clamp hit)
  std::atomic<uint64_t> edns_queries{0};      // parsed queries carrying an OPT
  std::atomic<uint64_t> badvers_responses{0};  // BADVERS sent (EDNS version > 0)
  std::atomic<uint64_t> tcp_connections{0};   // accepted
  std::atomic<uint64_t> tcp_rejected{0};      // refused over the connection cap
  std::atomic<uint64_t> tcp_timeouts{0};      // idle connections reaped
  std::atomic<uint64_t> cache_hits{0};        // served from the packet cache
  std::atomic<uint64_t> cache_misses{0};      // cache consulted, engine ran
  std::atomic<uint64_t> cache_stale{0};       // expired or wrong-generation entry erased
  std::atomic<uint64_t> cache_inserts{0};     // cacheable response stored
  std::atomic<uint64_t> cache_evictions{0};   // entry displaced from a full shard
  std::array<std::atomic<uint64_t>, 16> rcodes{};
  std::array<std::atomic<uint64_t>, kLatencyBuckets> latency{};

  void CountRcode(uint8_t rcode) {
    rcodes[rcode & 0xF].fetch_add(1, std::memory_order_relaxed);
  }
  void RecordLatencyUs(uint64_t us);
};

// Plain-integer aggregate of one or more worker blocks.
struct StatsSnapshot {
  uint64_t udp_queries = 0;
  uint64_t tcp_queries = 0;
  uint64_t parse_failures = 0;
  uint64_t encode_failures = 0;
  uint64_t servfail_fallbacks = 0;
  uint64_t engine_panics = 0;
  uint64_t unencodable_qnames = 0;
  uint64_t truncated_responses = 0;
  uint64_t edns_queries = 0;
  uint64_t badvers_responses = 0;
  uint64_t tcp_connections = 0;
  uint64_t tcp_rejected = 0;
  uint64_t tcp_timeouts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t generation = 0;  // zone snapshot generation at capture time
  // Datagrams the kernel dropped because a UDP worker's receive buffer was
  // full (SO_MEMINFO, read at capture time; not part of Add).
  uint64_t udp_rx_drops = 0;
  std::array<uint64_t, 16> rcodes{};
  std::array<uint64_t, kLatencyBuckets> latency{};

  uint64_t queries() const { return udp_queries + tcp_queries; }

  // Folds one worker block into this snapshot.
  void Add(const ServerStats& worker);

  // Upper bound (µs) of the bucket holding quantile q ∈ (0, 1]; 0 when no
  // latencies were recorded. Bucketed, so an estimate — good to a factor 2.
  uint64_t LatencyPercentileUs(double q) const;

  // One JSON object with every counter, the non-zero rcode histogram, and
  // p50/p90/p99 (schema in docs/SERVER.md).
  std::string ToJson() const;
};

}  // namespace dnsv

#endif  // DNSV_SERVER_STATS_H_
