// Integration tests for the production serving shell (src/server/server.h):
// real loopback sockets, sharded UDP workers, the TCP fallback that
// completes TC=1 truncation, hot zone reload (API + SIGHUP), and the
// malformed-packet flood the fuzz corpus feeds it. Every test skips cleanly
// in sandboxes where loopback sockets cannot be bound.
#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/fuzz/packet_gen.h"

namespace dnsv {
namespace {

ZoneConfig SmallZone(const std::string& www_ip) {
  Result<ZoneConfig> zone = ParseZoneText(
      "$ORIGIN example.com.\n"
      "@    SOA  ns1 1\n"
      "@    NS   ns1.example.com.\n"
      "www  A    " +
      www_ip + "\n");
  EXPECT_TRUE(zone.ok()) << zone.error();
  return std::move(zone).value();
}

std::string SmallZoneText(const std::string& www_ip) {
  return SmallZone(www_ip).ToText();
}

// Starts a server or skips the test (sandboxes without loopback sockets).
#define START_OR_SKIP(server, config, zone)                                  \
  std::unique_ptr<DnsServer> server;                                         \
  {                                                                          \
    Result<std::unique_ptr<DnsServer>> started = DnsServer::Start(config, zone); \
    if (!started.ok()) {                                                     \
      GTEST_SKIP() << "cannot bind loopback sockets: " << started.error();   \
    }                                                                        \
    server = std::move(started).value();                                     \
  }

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void SetRecvTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// One UDP request/response exchange on a fresh socket; empty on timeout.
std::vector<uint8_t> UdpExchange(uint16_t port, const std::vector<uint8_t>& request) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return {};
  }
  SetRecvTimeout(fd, 5);
  sockaddr_in addr = Loopback(port);
  ::sendto(fd, request.data(), request.size(), 0, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr));
  uint8_t buffer[65536];
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  if (n <= 0) {
    return {};
  }
  return std::vector<uint8_t>(buffer, buffer + n);
}

// One framed TCP exchange on a fresh connection; empty on failure.
std::vector<uint8_t> TcpExchange(uint16_t port, const std::vector<uint8_t>& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  SetRecvTimeout(fd, 5);
  sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::vector<uint8_t> framed;
  if (!AppendTcpFrame(&framed, request).ok()) {
    ::close(fd);
    return {};
  }
  ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);
  TcpFrameDecoder decoder;
  std::vector<uint8_t> message;
  uint8_t buffer[65536];
  while (true) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    decoder.Feed(buffer, static_cast<size_t>(n));
    if (decoder.Next(&message)) {
      ::close(fd);
      return message;
    }
  }
}

std::vector<uint8_t> QueryPacket(const std::string& qname, RrType qtype, uint16_t id) {
  WireQuery query;
  query.id = id;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  return EncodeWireQuery(query);
}

// The engine-side reference encoding for qname/qtype at `max_size` — what a
// byte-identical server response must equal.
std::vector<uint8_t> ReferenceAnswer(const ZoneConfig& zone, const std::string& qname,
                                     RrType qtype, uint16_t id, size_t max_size) {
  Result<std::unique_ptr<AuthoritativeServer>> reference =
      AuthoritativeServer::Create(EngineVersion::kGolden, zone);
  EXPECT_TRUE(reference.ok()) << reference.error();
  WireQuery query;
  query.id = id;
  query.qname = DnsName::Parse(qname).value();
  query.qtype = qtype;
  QueryResult result = reference.value()->Query(query.qname, query.qtype);
  EXPECT_FALSE(result.panicked);
  Result<std::vector<uint8_t>> encoded =
      EncodeWireResponse(query, result.response, max_size);
  EXPECT_TRUE(encoded.ok()) << encoded.error();
  return std::move(encoded).value();
}

TEST(DnsServerTest, UdpRoundTripServesTheVerifiedEngine) {
  ServerConfig config;
  config.udp_workers = 2;
  START_OR_SKIP(server, config, KitchenSinkZone());
  EXPECT_NE(server->udp_port(), 0);
  EXPECT_EQ(server->udp_port(), server->tcp_port());  // one port, both transports

  std::vector<uint8_t> reply =
      UdpExchange(server->udp_port(), QueryPacket("chain.example.com", RrType::kA, 0x4242));
  ASSERT_FALSE(reply.empty());
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(reply, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(echoed.id, 0x4242);
  EXPECT_EQ(view.value().rcode, Rcode::kNoError);
  EXPECT_EQ(view.value().answer.size(), 4u);  // 2 CNAMEs + 2 A records
  EXPECT_EQ(server->Stats().udp_queries, 1u);
}

// The acceptance path of ISSUE 5: an answer exceeding the UDP payload limit
// is served truncated with TC=1 over UDP, and byte-identical to the engine's
// full encoding over the TCP fallback.
TEST(DnsServerTest, TruncatedUdpAnswerIsServedInFullOverTcpByteIdentically) {
  ServerConfig config;
  config.udp_workers = 2;
  ZoneConfig zone = WideRrsetZone();
  START_OR_SKIP(server, config, zone);
  std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x7777);

  std::vector<uint8_t> udp_reply = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(udp_reply.empty());
  ASSERT_LE(udp_reply.size(), kMaxUdpPayload);
  bool truncated = false;
  WireQuery echoed;
  Result<ResponseView> udp_view = ParseWireResponse(udp_reply, &echoed, &truncated);
  ASSERT_TRUE(udp_view.ok()) << udp_view.error();
  EXPECT_TRUE(truncated) << "oversized answer must carry TC=1 over UDP";
  EXPECT_LT(udp_view.value().answer.size(), 40u);
  // The UDP bytes themselves must be the engine's truncated encoding.
  EXPECT_EQ(udp_reply,
            ReferenceAnswer(zone, "www.example.com", RrType::kA, 0x7777, kMaxUdpPayload));

  std::vector<uint8_t> tcp_reply = TcpExchange(server->tcp_port(), request);
  ASSERT_FALSE(tcp_reply.empty());
  EXPECT_EQ(tcp_reply,
            ReferenceAnswer(zone, "www.example.com", RrType::kA, 0x7777, kMaxTcpPayload))
      << "TCP fallback must be byte-identical to the engine's full encoding";
  Result<ResponseView> tcp_view = ParseWireResponse(tcp_reply, &echoed, &truncated);
  ASSERT_TRUE(tcp_view.ok()) << tcp_view.error();
  EXPECT_FALSE(truncated);
  EXPECT_EQ(tcp_view.value().answer.size(), 40u);

  StatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.truncated_responses, 1u);
  EXPECT_EQ(stats.tcp_queries, 1u);
  EXPECT_EQ(stats.tcp_connections, 1u);
}

TEST(DnsServerTest, MultiWorkerLoadAnswersConsistently) {
  ServerConfig config;
  config.udp_workers = 4;
  ZoneConfig zone = KitchenSinkZone();
  START_OR_SKIP(server, config, zone);
  const std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x1111);
  const std::vector<uint8_t> expected =
      ReferenceAnswer(zone, "www.example.com", RrType::kA, 0x1111, kMaxUdpPayload);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> dropped{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // A fresh socket per query: new 4-tuples keep SO_REUSEPORT spreading
        // the flow across all worker sockets.
        std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
        if (reply.empty()) {
          dropped.fetch_add(1);
        } else if (reply != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(dropped.load(), 0);
  StatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.udp_queries, static_cast<uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_EQ(stats.rcodes[0], stats.udp_queries);
  EXPECT_EQ(stats.udp_rx_drops, 0u);
}

TEST(DnsServerTest, HotReloadSwapsZonesWithoutDroppingQueries) {
  ServerConfig config;
  config.udp_workers = 2;
  START_OR_SKIP(server, config, SmallZone("10.0.0.1"));
  const std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x2222);
  constexpr int64_t kOldIp = 0x0A000001;
  constexpr int64_t kNewIp = 0x0A000002;

  std::atomic<bool> reload_done{false};
  std::atomic<int> dropped{0};
  std::atomic<int> bad_answers{0};
  std::atomic<int> new_ip_seen{0};
  std::thread client([&] {
    // Query continuously across the swap: every query must get an answer,
    // and every answer must be one of the two published zones' — never an
    // error, never a mix.
    for (int i = 0; i < 200 || !reload_done.load(); ++i) {
      std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
      if (reply.empty()) {
        dropped.fetch_add(1);
        continue;
      }
      Result<ResponseView> view = ParseWireResponse(reply, nullptr);
      if (!view.ok() || view.value().rcode != Rcode::kNoError ||
          view.value().answer.size() != 1) {
        bad_answers.fetch_add(1);
        continue;
      }
      int64_t ip = view.value().answer[0].rdata_value;
      if (ip == kNewIp) {
        new_ip_seen.fetch_add(1);
      } else if (ip != kOldIp) {
        bad_answers.fetch_add(1);
      }
      if (i > 100000) {
        break;  // reload failed; the loop guard below reports it
      }
    }
  });
  Status reloaded = server->Reload(SmallZone("10.0.0.2"));
  EXPECT_TRUE(reloaded.ok()) << reloaded.message();
  EXPECT_EQ(server->generation(), 2u);
  reload_done.store(true);
  client.join();
  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(bad_answers.load(), 0);

  // After the swap settles, the new zone is what every worker serves.
  std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(reply.empty());
  Result<ResponseView> view = ParseWireResponse(reply, nullptr);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().answer.size(), 1u);
  EXPECT_EQ(view.value().answer[0].rdata_value, kNewIp);

  // A broken zone is rejected at publish time and the good one keeps serving.
  ZoneConfig broken;  // no SOA, no origin
  Status rejected = server->Reload(broken);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(server->generation(), 2u);
  reply = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(reply.empty());
  view = ParseWireResponse(reply, nullptr);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().answer.size(), 1u);
  EXPECT_EQ(view.value().answer[0].rdata_value, kNewIp);
}

TEST(DnsServerTest, SighupReloadsTheZoneFile) {
  std::string path = testing::TempDir() + "/dnsv_sighup_reload.zone";
  {
    std::ofstream out(path);
    out << SmallZoneText("10.0.0.1");
  }
  ServerConfig config;
  START_OR_SKIP(server, config, SmallZone("10.0.0.1"));
  SignalReloader reloader(server.get(), path);
  const std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x3333);

  {
    std::ofstream out(path);
    out << SmallZoneText("10.0.0.2");
  }
  ASSERT_EQ(::kill(::getpid(), SIGHUP), 0);

  // The reloader consumes the signal and republishes; poll until the answer
  // flips (the swap is asynchronous but must land within seconds).
  int64_t ip = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
    ASSERT_FALSE(reply.empty());
    Result<ResponseView> view = ParseWireResponse(reply, nullptr);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view.value().answer.size(), 1u);
    ip = view.value().answer[0].rdata_value;
    if (ip == 0x0A000002) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(ip, 0x0A000002);
  EXPECT_EQ(reloader.reloads(), 1u);
  EXPECT_EQ(server->generation(), 2u);

  // A SIGHUP pointing at a broken file keeps the old zone serving.
  {
    std::ofstream out(path);
    out << "this is not a zone file\n";
  }
  ASSERT_EQ(::kill(::getpid(), SIGHUP), 0);
  for (int attempt = 0; attempt < 100 && reloader.failures() == 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(reloader.failures(), 1u);
  EXPECT_EQ(server->generation(), 2u);
  std::vector<uint8_t> reply = UdpExchange(server->udp_port(), request);
  ASSERT_FALSE(reply.empty());
  Result<ResponseView> view = ParseWireResponse(reply, nullptr);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().answer.size(), 1u);
  EXPECT_EQ(view.value().answer[0].rdata_value, 0x0A000002);
  std::filesystem::remove(path);
}

TEST(DnsServerTest, MalformedFloodLeavesStatsConsistentAndProcessAlive) {
  ServerConfig config;
  config.udp_workers = 2;
  START_OR_SKIP(server, config, KitchenSinkZone());

  // The fuzz corpus's reject packets plus deterministic junk.
  std::vector<std::vector<uint8_t>> packets;
  for (const auto& entry : std::filesystem::directory_iterator(DNSV_WIRE_CORPUS_DIR)) {
    if (entry.path().extension() != ".hex") {
      continue;
    }
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    Result<std::vector<uint8_t>> packet = HexToWirePacket(text.str());
    ASSERT_TRUE(packet.ok()) << packet.error();
    packets.push_back(std::move(packet).value());
  }
  ASSERT_GE(packets.size(), 10u);

  constexpr int kThreads = 4;
  constexpr int kPacketsPerThread = 150;
  std::atomic<int> unanswered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kPacketsPerThread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        std::vector<uint8_t> packet;
        if (i % 3 == 0) {
          // Raw junk of pseudo-random length (0 is a valid UDP datagram —
          // the server owes no reply for those, so skip length 0 here).
          size_t len = 1 + (rng % 64);
          packet.resize(len);
          for (size_t b = 0; b < len; ++b) {
            packet[b] = static_cast<uint8_t>((rng >> (b % 56)) & 0xff);
          }
        } else {
          packet = packets[rng % packets.size()];
        }
        // Every non-empty datagram gets exactly one response (FORMERR at
        // worst) — a flood must never make the server go silent or die.
        if (UdpExchange(server->udp_port(), packet).empty()) {
          unanswered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(unanswered.load(), 0);

  // The process is alive and still serves real queries correctly.
  std::vector<uint8_t> reply =
      UdpExchange(server->udp_port(), QueryPacket("www.example.com", RrType::kA, 0x5555));
  ASSERT_FALSE(reply.empty());
  Result<ResponseView> view = ParseWireResponse(reply, nullptr);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().rcode, Rcode::kNoError);

  // Counter consistency: every served packet was counted once, with exactly
  // one rcode; parse failures are a subset of queries.
  StatsSnapshot stats = server->Stats();
  EXPECT_EQ(stats.udp_queries, static_cast<uint64_t>(kThreads * kPacketsPerThread) + 1);
  EXPECT_GT(stats.parse_failures, 0u);
  EXPECT_LE(stats.parse_failures, stats.udp_queries);
  uint64_t rcode_total = 0;
  for (uint64_t count : stats.rcodes) {
    rcode_total += count;
  }
  // BADVERS (rcode 16) lives outside the 4-bit histogram; its dedicated
  // counter completes the books. The corpus's query_badvers_version1.hex
  // guarantees the path is exercised by the flood.
  EXPECT_EQ(rcode_total + stats.badvers_responses, stats.queries());
  EXPECT_GT(stats.badvers_responses, 0u);
  EXPECT_EQ(stats.servfail_fallbacks, 0u);  // corpus packets never reach the fallback
  EXPECT_EQ(stats.udp_rx_drops, 0u);
}

TEST(DnsServerTest, TcpConnectionCapRejectsTheExcessConnection) {
  ServerConfig config;
  config.max_tcp_connections = 2;
  START_OR_SKIP(server, config, KitchenSinkZone());
  std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x6666);

  // Two served connections hold their slots...
  auto open_and_query = [&](int* fd_out) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SetRecvTimeout(fd, 5);
    sockaddr_in addr = Loopback(server->tcp_port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::vector<uint8_t> framed;
    ASSERT_TRUE(AppendTcpFrame(&framed, request).ok());
    ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);
    TcpFrameDecoder decoder;
    std::vector<uint8_t> message;
    uint8_t buffer[65536];
    while (true) {
      ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      ASSERT_GT(n, 0);
      decoder.Feed(buffer, static_cast<size_t>(n));
      if (decoder.Next(&message)) {
        break;
      }
    }
    *fd_out = fd;
  };
  int held1 = -1, held2 = -1;
  open_and_query(&held1);
  open_and_query(&held2);
  if (HasFatalFailure()) {
    return;
  }

  // ...so the third is accepted and immediately closed.
  int rejected = ::socket(AF_INET, SOCK_STREAM, 0);
  SetRecvTimeout(rejected, 5);
  sockaddr_in addr = Loopback(server->tcp_port());
  ASSERT_EQ(::connect(rejected, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  uint8_t buffer[16];
  EXPECT_EQ(::recv(rejected, buffer, sizeof(buffer), 0), 0) << "expected an orderly close";
  ::close(rejected);
  ::close(held1);
  ::close(held2);
  EXPECT_GE(server->Stats().tcp_rejected, 1u);
}

TEST(DnsServerTest, TcpIdleConnectionsAreReaped) {
  ServerConfig config;
  config.tcp_idle_timeout_ms = 150;
  START_OR_SKIP(server, config, KitchenSinkZone());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SetRecvTimeout(fd, 5);
  sockaddr_in addr = Loopback(server->tcp_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Send nothing: the sweep must close us (recv sees EOF, not a timeout).
  uint8_t buffer[16];
  EXPECT_EQ(::recv(fd, buffer, sizeof(buffer), 0), 0);
  ::close(fd);
  EXPECT_GE(server->Stats().tcp_timeouts, 1u);
}

TEST(DnsServerTest, GracefulShutdownDrainsTheInFlightTcpQuery) {
  ServerConfig config;
  config.drain_timeout_ms = 500;
  START_OR_SKIP(server, config, KitchenSinkZone());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SetRecvTimeout(fd, 5);
  sockaddr_in addr = Loopback(server->tcp_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<uint8_t> framed;
  ASSERT_TRUE(AppendTcpFrame(&framed, QueryPacket("www.example.com", RrType::kA, 0x8888)).ok());
  ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);

  // Stop() must not cut off the connection before the queued query is
  // answered: the drain phase serves what is already connected.
  std::thread stopper([&] { server->Stop(); });
  TcpFrameDecoder decoder;
  std::vector<uint8_t> message;
  uint8_t buffer[65536];
  bool got_reply = false;
  while (!got_reply) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    decoder.Feed(buffer, static_cast<size_t>(n));
    got_reply = decoder.Next(&message);
  }
  stopper.join();
  ::close(fd);
  ASSERT_TRUE(got_reply) << "drain must serve the in-flight query";
  WireQuery echoed;
  Result<ResponseView> view = ParseWireResponse(message, &echoed);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(echoed.id, 0x8888);
}

TEST(DnsServerTest, WorkerShardHeapStaysFlatOverTenThousandQueries) {
  // A worker serves from its shard for as long as the zone generation holds,
  // with no rebuild to fall back on: the engine must reclaim every
  // query-scoped heap block itself, on both backends.
  const char* const kQuestions[] = {"www.example.com",      "chain.example.com",
                                    "deep.sub.example.com", "host.dyn.example.com",
                                    "missing.example.com",  "ent.example.com",
                                    "example.com"};
  const RrType kTypes[] = {RrType::kA, RrType::kMx, RrType::kAny};
  std::vector<std::vector<uint8_t>> packets;
  for (const char* qname : kQuestions) {
    for (RrType type : kTypes) {
      packets.push_back(QueryPacket(qname, type, static_cast<uint16_t>(packets.size())));
    }
  }
  for (BackendKind backend : {BackendKind::kInterp, BackendKind::kCompiled}) {
    SCOPED_TRACE(BackendKindName(backend));
    SnapshotHolder snapshots;
    Status published =
        snapshots.Publish(EngineVersion::kGolden, KitchenSinkZone(), "<test>", backend);
    ASSERT_TRUE(published.ok()) << published.message();
    std::unique_ptr<AuthoritativeServer> shard =
        snapshots.Load()->BuildShard(EngineVersion::kGolden, backend);
    for (const std::vector<uint8_t>& packet : packets) {
      ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, nullptr);
    }
    const size_t warm_blocks = shard->memory().num_blocks();
    for (int i = 0; i < 10000; ++i) {
      const std::vector<uint8_t>& packet = packets[i % packets.size()];
      ServeOutcome outcome =
          ServePacket(shard.get(), packet.data(), packet.size(), kMaxUdpPayload, nullptr);
      ASSERT_FALSE(outcome.wire.empty());
    }
    EXPECT_EQ(shard->memory().num_blocks(), warm_blocks);
  }
}

TEST(DnsServerTest, StopWakesIdleWorkersPromptly) {
  // Idle UDP workers block in recvmmsg with no timeout; Stop() must wake
  // each of them (shutdown of the read side), not wait out a poll interval.
  ServerConfig config;
  config.udp_workers = 4;
  START_OR_SKIP(server, config, KitchenSinkZone());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let workers block
  auto begin = std::chrono::steady_clock::now();
  server->Stop();
  auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(DnsServerTest, ZeroLengthDatagramGetsNoAnswerAndTheWorkerKeepsServing) {
  ServerConfig config;
  ZoneConfig zone = KitchenSinkZone();
  START_OR_SKIP(server, config, zone);
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = Loopback(server->udp_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  timeval short_wait{};
  short_wait.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &short_wait, sizeof(short_wait));
  ASSERT_EQ(::send(fd, nullptr, 0, 0), 0);
  uint8_t buffer[4096];
  EXPECT_LT(::recv(fd, buffer, sizeof(buffer), 0), 0) << "a zero-length datagram is owed nothing";

  // The same worker (one UDP worker) still answers a real query.
  SetRecvTimeout(fd, 5);
  const std::vector<uint8_t> request = QueryPacket("www.example.com", RrType::kA, 0x7777);
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  ::close(fd);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::vector<uint8_t>(buffer, buffer + n),
            ReferenceAnswer(zone, "www.example.com", RrType::kA, 0x7777, kMaxUdpPayload));
  EXPECT_EQ(server->Stats().udp_queries, 1u);
}

TEST(DnsServerTest, StartRejectsAnInvalidZone) {
  ServerConfig config;
  ZoneConfig broken;  // empty: no SOA at the apex
  Result<std::unique_ptr<DnsServer>> started = DnsServer::Start(config, broken);
  EXPECT_FALSE(started.ok());
}

TEST(DnsServerTest, StatsJsonIsWellFormedEnoughToGrep) {
  ServerConfig config;
  START_OR_SKIP(server, config, KitchenSinkZone());
  std::vector<uint8_t> reply =
      UdpExchange(server->udp_port(), QueryPacket("www.example.com", RrType::kA, 0xAAAA));
  ASSERT_FALSE(reply.empty());
  std::string json = server->StatsJson();
  EXPECT_NE(json.find("\"udp_queries\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"generation\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos) << json;
}

}  // namespace
}  // namespace dnsv
