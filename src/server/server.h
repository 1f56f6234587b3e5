// src/server: the production serving shell around the verified engine
// (docs/SERVER.md).
//
// The data plane stays the exact AbsIR program DNS-V verified — every packet
// goes wire bytes -> ParseWireQuery -> AuthoritativeServer::Query (the
// configured ExecutionBackend over the compiled engine: the reference
// interpreter, or the AOT-compiled native code — docs/BACKEND.md) ->
// EncodeWireResponse. The shell adds what the paper leaves to conventional
// engineering:
//
//   * N sharded UDP workers, each with its own SO_REUSEPORT socket (blocking
//     recvmmsg in, sendmmsg out) and private AuthoritativeServer shard (the
//     interpreter mutates its ConcreteMemory per query, so shards are never
//     shared).
//   * A TCP listener (RFC 1035 §4.2.2 two-byte-length framing) with a
//     connection cap and per-connection idle timeouts, so a TC=1 UDP answer
//     can be retried over TCP and served in full (no 512-byte clamp).
//   * Hot zone reload via SnapshotHolder: validate off-thread, swap an
//     atomic shared_ptr, keep serving the old zone on failure.
//   * Lock-free per-worker ServerStats, aggregated on demand.
//   * Graceful shutdown: UDP intake stops, in-flight TCP connections drain
//     within ServerConfig::drain_timeout_ms.
#ifndef DNSV_SERVER_SERVER_H_
#define DNSV_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dns/wire.h"
#include "src/dns/zone.h"
#include "src/engine/engine.h"
#include "src/server/cache.h"
#include "src/server/serve.h"
#include "src/server/snapshot.h"
#include "src/server/stats.h"

namespace dnsv {

struct ServerConfig {
  std::string bind_ip = "127.0.0.1";
  // 0 means kernel-assigned; read the actual ports back via udp_port() /
  // tcp_port(). UDP and TCP bind the same port number, as real DNS does.
  uint16_t port = 0;
  int udp_workers = 1;  // clamped to 1..64
  bool enable_tcp = true;
  int max_tcp_connections = 64;   // beyond this, accepts are closed on the spot
  int tcp_idle_timeout_ms = 5000;  // idle connections are reaped
  int drain_timeout_ms = 2000;     // graceful-shutdown budget for TCP drain
  EngineVersion version = EngineVersion::kGolden;
  // How shards execute AbsIR: the reference interpreter or the AOT-compiled
  // native code (docs/BACKEND.md). Behaviorally identical — enforced by the
  // interp-vs-compiled differential — but compiled shards answer much faster.
  BackendKind backend = BackendKind::kInterp;
  size_t udp_payload_limit = kMaxUdpPayload;
  // Capacity of the shared response packet cache (src/server/cache.h); 0
  // disables it. All workers share one cache — entries are keyed on the
  // case-folded question and stamped with the worker's snapshot generation,
  // so reloads invalidate everything without a sweep.
  size_t cache_entries = 4096;
};

class DnsServer {
 public:
  // Validates + publishes `zone`, binds all sockets, spawns the workers.
  // Blocks SIGPIPE and SIGHUP in the calling thread first so every worker
  // inherits the mask (SIGHUP is then consumable by SignalReloader; a TCP
  // peer closing mid-write cannot kill the process).
  static Result<std::unique_ptr<DnsServer>> Start(const ServerConfig& config,
                                                  const ZoneConfig& zone);
  ~DnsServer();

  // Graceful shutdown: stops UDP intake and the TCP accept path, drains
  // in-flight TCP connections up to drain_timeout_ms, joins all workers.
  // Idempotent.
  void Stop();

  // Hot reload: validates `zone` and publishes it atomically. Each worker
  // picks the new snapshot up before its next query; on error the old zone
  // keeps serving and the error is returned.
  Status Reload(const ZoneConfig& zone, std::string source = "<api>");
  // Reads + parses the repo zone text format, then Reload().
  Status ReloadFromFile(const std::string& path);

  uint16_t udp_port() const { return udp_port_; }
  uint16_t tcp_port() const { return tcp_port_; }
  uint64_t generation() const { return snapshots_.generation(); }

  // Folds every worker's stats block into one snapshot, plus the kernel's
  // receive-buffer drop count for the UDP sockets (udp_rx_drops). Safe while
  // the workers serve; not concurrently with Stop(), which closes the sockets.
  StatsSnapshot Stats() const;
  std::string StatsJson() const { return Stats().ToJson(); }

  const ServerConfig& config() const { return config_; }

 private:
  struct UdpWorker;
  struct TcpWorker;

  DnsServer() = default;
  Status Bind();
  void CloseSockets();  // releases a partially bound socket set (Bind retry)
  void UdpLoop(UdpWorker* worker);
  void TcpLoop();
  // Datagrams the kernel dropped at the UDP sockets' full receive buffers.
  uint64_t UdpRxDrops() const;
  // Rebuilds `shard` when the published generation moved past
  // `shard_generation`.
  void RefreshShard(std::unique_ptr<AuthoritativeServer>* shard, uint64_t* shard_generation);

  ServerConfig config_;
  SnapshotHolder snapshots_;
  std::unique_ptr<PacketCache> cache_;  // null when cache_entries == 0
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  uint64_t final_udp_rx_drops_ = 0;  // UdpRxDrops() as Stop() closed the sockets
  int stop_event_ = -1;  // eventfd in the TCP worker's epoll set; written once by Stop()
  uint16_t udp_port_ = 0;
  uint16_t tcp_port_ = 0;
  std::vector<std::unique_ptr<UdpWorker>> udp_workers_;
  std::unique_ptr<TcpWorker> tcp_worker_;
};

// Consumes SIGHUP on a dedicated thread and reloads `zone_path` into the
// server on each one (the production reload protocol: `kill -HUP <pid>`).
// Relies on SIGHUP being blocked process-wide, which DnsServer::Start
// guarantees for the starting thread and everything spawned after it; create
// gtest/main threads' sockets after Start for the same reason. Reload
// failures keep the old zone and are reported on stderr.
class SignalReloader {
 public:
  SignalReloader(DnsServer* server, std::string zone_path);
  ~SignalReloader();

  uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }
  uint64_t failures() const { return failures_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> failures_{0};
  std::thread thread_;
};

}  // namespace dnsv

#endif  // DNSV_SERVER_SERVER_H_
