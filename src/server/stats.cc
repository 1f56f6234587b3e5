#include "src/server/stats.h"

#include <bit>

#include "src/support/strings.h"

namespace dnsv {

void ServerStats::RecordLatencyUs(uint64_t us) {
  int bucket = us == 0 ? 0 : std::bit_width(us);
  if (bucket >= kLatencyBuckets) {
    bucket = kLatencyBuckets - 1;
  }
  latency[bucket].fetch_add(1, std::memory_order_relaxed);
}

void StatsSnapshot::Add(const ServerStats& worker) {
  auto get = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  udp_queries += get(worker.udp_queries);
  tcp_queries += get(worker.tcp_queries);
  parse_failures += get(worker.parse_failures);
  encode_failures += get(worker.encode_failures);
  servfail_fallbacks += get(worker.servfail_fallbacks);
  engine_panics += get(worker.engine_panics);
  unencodable_qnames += get(worker.unencodable_qnames);
  truncated_responses += get(worker.truncated_responses);
  edns_queries += get(worker.edns_queries);
  badvers_responses += get(worker.badvers_responses);
  tcp_connections += get(worker.tcp_connections);
  tcp_rejected += get(worker.tcp_rejected);
  tcp_timeouts += get(worker.tcp_timeouts);
  cache_hits += get(worker.cache_hits);
  cache_misses += get(worker.cache_misses);
  cache_stale += get(worker.cache_stale);
  cache_inserts += get(worker.cache_inserts);
  cache_evictions += get(worker.cache_evictions);
  for (size_t i = 0; i < rcodes.size(); ++i) {
    rcodes[i] += get(worker.rcodes[i]);
  }
  for (int i = 0; i < kLatencyBuckets; ++i) {
    latency[i] += get(worker.latency[i]);
  }
}

uint64_t StatsSnapshot::LatencyPercentileUs(double q) const {
  uint64_t total = 0;
  for (uint64_t count : latency) {
    total += count;
  }
  if (total == 0) {
    return 0;
  }
  // Rank of the q-quantile sample, 1-based; q=1 is the last sample.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank < 1) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kLatencyBuckets; ++i) {
    seen += latency[i];
    if (seen >= rank) {
      return i == 0 ? 1 : uint64_t{1} << i;  // bucket upper bound in µs
    }
  }
  return uint64_t{1} << (kLatencyBuckets - 1);
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{";
  auto field = [&out](const char* name, uint64_t value, bool first = false) {
    if (!first) {
      out += ", ";
    }
    out += StrCat("\"", name, "\": ", value);
  };
  field("generation", generation, /*first=*/true);
  field("udp_queries", udp_queries);
  field("tcp_queries", tcp_queries);
  field("parse_failures", parse_failures);
  field("encode_failures", encode_failures);
  field("servfail_fallbacks", servfail_fallbacks);
  field("engine_panics", engine_panics);
  field("unencodable_qnames", unencodable_qnames);
  field("truncated_responses", truncated_responses);
  field("edns_queries", edns_queries);
  field("badvers_responses", badvers_responses);
  field("tcp_connections", tcp_connections);
  field("tcp_rejected", tcp_rejected);
  field("tcp_timeouts", tcp_timeouts);
  field("udp_rx_drops", udp_rx_drops);
  field("cache_hits", cache_hits);
  field("cache_misses", cache_misses);
  field("cache_stale", cache_stale);
  field("cache_inserts", cache_inserts);
  field("cache_evictions", cache_evictions);
  out += ", \"rcodes\": {";
  bool first_rcode = true;
  for (size_t i = 0; i < rcodes.size(); ++i) {
    if (rcodes[i] == 0) {
      continue;
    }
    if (!first_rcode) {
      out += ", ";
    }
    out += StrCat("\"", i, "\": ", rcodes[i]);
    first_rcode = false;
  }
  out += "}";
  field("p50_us", LatencyPercentileUs(0.50));
  field("p90_us", LatencyPercentileUs(0.90));
  field("p99_us", LatencyPercentileUs(0.99));
  out += "}";
  return out;
}

}  // namespace dnsv
