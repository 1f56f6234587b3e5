#include "src/server/server.h"

#include <arpa/inet.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - since).count());
}

bool MakeAddr(const std::string& ip, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) == 1;
}

uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

void CloseIfOpen(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// Each UDP worker's receive buffer; the kernel doubles it, which holds about
// 1,260 small queries. The default (256 queries) overflowed on host stalls of
// a few milliseconds, and a queue the worker cannot drain within a client's
// retry interval turns overload into failure of every query (docs/SERVER.md §1).
constexpr int kUdpReceiveBufferBytes = 512 << 10;

int MakeWorkerEpoll(int data_fd, int stop_fd, std::string* error) {
  int epoll_fd = ::epoll_create1(0);
  if (epoll_fd < 0) {
    *error = StrCat("epoll_create1: ", std::strerror(errno));
    return -1;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = data_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, data_fd, &ev) != 0 ||
      (ev.data.fd = stop_fd, ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, stop_fd, &ev) != 0)) {
    *error = StrCat("epoll_ctl: ", std::strerror(errno));
    ::close(epoll_fd);
    return -1;
  }
  return epoll_fd;
}

// One TCP connection's state: the RFC 1035 §4.2.2 de-framer, the pending
// outbound bytes (responses are queued here and flushed as the socket
// accepts them), and the idle-timeout clock.
struct TcpConn {
  TcpFrameDecoder decoder;
  std::vector<uint8_t> outbound;
  size_t out_pos = 0;
  bool want_write = false;
  Clock::time_point last_active;
};

}  // namespace

struct DnsServer::UdpWorker {
  int fd = -1;  // blocking; Stop() wakes its recvmmsg with shutdown(SHUT_RD)
  std::unique_ptr<AuthoritativeServer> shard;
  uint64_t shard_generation = 0;
  ServerStats stats;
  std::thread thread;
};

struct DnsServer::TcpWorker {
  int listen_fd = -1;
  int epoll_fd = -1;
  std::unique_ptr<AuthoritativeServer> shard;
  uint64_t shard_generation = 0;
  ServerStats stats;
  std::thread thread;
};

Result<std::unique_ptr<DnsServer>> DnsServer::Start(const ServerConfig& config,
                                                    const ZoneConfig& zone) {
  auto server = std::unique_ptr<DnsServer>(new DnsServer());
  server->config_ = config;
  if (server->config_.udp_workers < 1) {
    server->config_.udp_workers = 1;
  }
  if (server->config_.udp_workers > 64) {
    server->config_.udp_workers = 64;
  }
  if (server->config_.cache_entries > 0) {
    server->cache_ = std::make_unique<PacketCache>(server->config_.cache_entries);
  }

  // Workers inherit this thread's mask: a TCP peer resetting mid-write must
  // not raise SIGPIPE in a worker, and SIGHUP must stay deliverable only to
  // SignalReloader's sigtimedwait (default disposition would kill us).
  sigset_t blocked;
  sigemptyset(&blocked);
  sigaddset(&blocked, SIGPIPE);
  sigaddset(&blocked, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &blocked, nullptr);

  Status published = server->snapshots_.Publish(server->config_.version, zone, "<initial>",
                                                server->config_.backend);
  if (!published.ok()) {
    return Result<std::unique_ptr<DnsServer>>::Error(published.message());
  }
  Status bound = server->Bind();
  if (!bound.ok()) {
    return Result<std::unique_ptr<DnsServer>>::Error(bound.message());
  }

  // Pre-build every shard so the first packet is not a zone materialization.
  std::shared_ptr<const ZoneSnapshot> snapshot = server->snapshots_.Load();
  for (auto& worker : server->udp_workers_) {
    worker->shard = snapshot->BuildShard(server->config_.version, server->config_.backend);
    worker->shard_generation = snapshot->generation;
  }
  if (server->tcp_worker_ != nullptr) {
    server->tcp_worker_->shard =
        snapshot->BuildShard(server->config_.version, server->config_.backend);
    server->tcp_worker_->shard_generation = snapshot->generation;
  }

  for (auto& worker : server->udp_workers_) {
    worker->thread = std::thread(&DnsServer::UdpLoop, server.get(), worker.get());
  }
  if (server->tcp_worker_ != nullptr) {
    server->tcp_worker_->thread = std::thread(&DnsServer::TcpLoop, server.get());
  }
  return server;
}

Status DnsServer::Bind() {
  stop_event_ = ::eventfd(0, EFD_NONBLOCK);
  if (stop_event_ < 0) {
    return Status::Error(StrCat("eventfd: ", std::strerror(errno)));
  }

  std::string error;
  // With port 0 the kernel picks the TCP port first and UDP then binds the
  // same number; another process may already own that UDP port, so retry
  // with a fresh ephemeral port instead of failing Start.
  for (int attempt = 0; attempt < 8; ++attempt) {
    error.clear();
    uint16_t port = config_.port;

    if (config_.enable_tcp) {
      tcp_worker_ = std::make_unique<TcpWorker>();
      TcpWorker* tcp = tcp_worker_.get();
      tcp->listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      if (tcp->listen_fd < 0) {
        return Status::Error(StrCat("socket(tcp): ", std::strerror(errno)));
      }
      int on = 1;
      ::setsockopt(tcp->listen_fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
      sockaddr_in addr{};
      if (!MakeAddr(config_.bind_ip, port, &addr)) {
        return Status::Error("bad bind address: " + config_.bind_ip);
      }
      if (::bind(tcp->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(tcp->listen_fd, 128) != 0) {
        error = StrCat("bind/listen(tcp ", config_.bind_ip, ":", port,
                       "): ", std::strerror(errno));
        CloseSockets();
        return Status::Error(error);  // a fixed or fresh TCP port failing is fatal
      }
      tcp_port_ = BoundPort(tcp->listen_fd);
      port = tcp_port_;  // UDP shares the port number, like real DNS
      tcp->epoll_fd = MakeWorkerEpoll(tcp->listen_fd, stop_event_, &error);
      if (tcp->epoll_fd < 0) {
        CloseSockets();
        return Status::Error(error);
      }
    }

    bool udp_ok = true;
    for (int i = 0; i < config_.udp_workers; ++i) {
      auto worker = std::make_unique<UdpWorker>();
      worker->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      if (worker->fd < 0) {
        return Status::Error(StrCat("socket(udp): ", std::strerror(errno)));
      }
      int on = 1;
      // SO_REUSEPORT is the sharding mechanism: every worker binds the same
      // address and the kernel spreads flows across the sockets by 4-tuple.
      ::setsockopt(worker->fd, SOL_SOCKET, SO_REUSEPORT, &on, sizeof(on));
      // SO_RCVBUFFORCE may exceed net.core.rmem_max (CAP_NET_ADMIN);
      // SO_RCVBUF gets what the sysctl allows otherwise.
      int rcvbuf = kUdpReceiveBufferBytes;
      if (::setsockopt(worker->fd, SOL_SOCKET, SO_RCVBUFFORCE, &rcvbuf, sizeof(rcvbuf)) != 0) {
        ::setsockopt(worker->fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      }
      sockaddr_in addr{};
      if (!MakeAddr(config_.bind_ip, port, &addr)) {
        return Status::Error("bad bind address: " + config_.bind_ip);
      }
      if (::bind(worker->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        error = StrCat("bind(udp ", config_.bind_ip, ":", port, "): ", std::strerror(errno));
        ::close(worker->fd);
        udp_ok = false;
        break;
      }
      if (port == 0) {
        port = BoundPort(worker->fd);  // no TCP: first worker learns the port
      }
      udp_workers_.push_back(std::move(worker));
    }
    if (udp_ok) {
      udp_port_ = port;
      return Status::Ok();
    }
    CloseSockets();
    if (config_.port != 0 || !config_.enable_tcp) {
      break;  // the port cannot change on retry, so the failure is permanent
    }
  }
  return Status::Error(error);
}

void DnsServer::CloseSockets() {
  for (auto& worker : udp_workers_) {
    CloseIfOpen(&worker->fd);
  }
  udp_workers_.clear();
  if (tcp_worker_ != nullptr) {
    CloseIfOpen(&tcp_worker_->listen_fd);
    CloseIfOpen(&tcp_worker_->epoll_fd);
    tcp_worker_.reset();
  }
}

void DnsServer::RefreshShard(std::unique_ptr<AuthoritativeServer>* shard,
                             uint64_t* shard_generation) {
  if (snapshots_.generation() != *shard_generation) {
    std::shared_ptr<const ZoneSnapshot> snapshot = snapshots_.Load();
    *shard = snapshot->BuildShard(config_.version, config_.backend);
    *shard_generation = snapshot->generation;
  }
}

void DnsServer::UdpLoop(UdpWorker* worker) {
  // Two syscalls per wakeup: recvmmsg blocks until one datagram arrives and
  // then takes whatever else is queued, up to kUdpBatch (MSG_WAITFORONE); one
  // sendmmsg answers the batch in arrival order. Stop() wakes a blocked worker
  // by shutting the socket's read side; recvmmsg then returns at once.
  constexpr int kUdpBatch = 16;
  std::vector<std::array<uint8_t, 4096>> buffers(kUdpBatch);
  std::vector<ServeOutcome> outcomes(kUdpBatch);
  mmsghdr recv_msgs[kUdpBatch] = {};
  mmsghdr send_msgs[kUdpBatch] = {};
  iovec recv_iovs[kUdpBatch];
  iovec send_iovs[kUdpBatch];
  sockaddr_in peers[kUdpBatch];
  for (int i = 0; i < kUdpBatch; ++i) {
    recv_iovs[i] = {buffers[i].data(), buffers[i].size()};
    recv_msgs[i].msg_hdr.msg_name = &peers[i];
    recv_msgs[i].msg_hdr.msg_iov = &recv_iovs[i];
    recv_msgs[i].msg_hdr.msg_iovlen = 1;
    send_msgs[i].msg_hdr.msg_iov = &send_iovs[i];
    send_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  while (!stopping_.load(std::memory_order_relaxed)) {
    for (mmsghdr& msg : recv_msgs) {
      msg.msg_hdr.msg_namelen = sizeof(sockaddr_in);  // recvmmsg overwrites it
    }
    int got = ::recvmmsg(worker->fd, recv_msgs, kUdpBatch, MSG_WAITFORONE, nullptr);
    if (got < 0) {
      continue;  // EINTR; the stop flag is re-checked above
    }
    int to_send = 0;
    for (int i = 0; i < got; ++i) {
      size_t n = recv_msgs[i].msg_len;
      if (n == 0) {
        continue;  // zero-length datagram (or the stop wakeup): nothing owed
      }
      RefreshShard(&worker->shard, &worker->shard_generation);
      Clock::time_point started = Clock::now();
      // The cache generation is the generation this worker's shard was
      // just refreshed to: a cached answer is served only if it matches
      // what this shard would compute right now.
      ServeContext ctx{cache_.get(), worker->shard_generation};
      outcomes[to_send] = ServePacket(worker->shard.get(), buffers[i].data(), n,
                                      config_.udp_payload_limit, &worker->stats, ctx);
      worker->stats.udp_queries.fetch_add(1, std::memory_order_relaxed);
      worker->stats.RecordLatencyUs(ElapsedUs(started));
      const std::vector<uint8_t>& wire = outcomes[to_send].wire;
      send_iovs[to_send] = {const_cast<uint8_t*>(wire.data()), wire.size()};
      send_msgs[to_send].msg_hdr.msg_name = &peers[i];
      send_msgs[to_send].msg_hdr.msg_namelen = recv_msgs[i].msg_hdr.msg_namelen;
      ++to_send;
    }
    // Best-effort like sendto on a non-blocking socket: a failed send drops
    // that response and the client retries, but later responses still go
    // out, and a full send buffer never stalls the worker.
    for (int done = 0; done < to_send;) {
      int sent = ::sendmmsg(worker->fd, send_msgs + done, to_send - done, MSG_DONTWAIT);
      if (sent <= 0) {
        break;
      }
      done += sent;
    }
  }
}

void DnsServer::TcpLoop() {
  TcpWorker* tcp = tcp_worker_.get();
  std::unordered_map<int, TcpConn> conns;
  epoll_event events[64];
  uint8_t buffer[4096];
  bool draining = false;
  Clock::time_point drain_deadline{};

  auto close_conn = [&](int fd) {
    ::epoll_ctl(tcp->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns.erase(fd);
  };
  auto flush = [&](int fd, TcpConn* conn) {
    while (conn->out_pos < conn->outbound.size()) {
      ssize_t sent = ::send(fd, conn->outbound.data() + conn->out_pos,
                            conn->outbound.size() - conn->out_pos, MSG_NOSIGNAL);
      if (sent > 0) {
        conn->out_pos += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = fd;
          ::epoll_ctl(tcp->epoll_fd, EPOLL_CTL_MOD, fd, &ev);
          conn->want_write = true;
        }
        return true;
      }
      return false;  // peer went away
    }
    conn->outbound.clear();
    conn->out_pos = 0;
    if (conn->want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      ::epoll_ctl(tcp->epoll_fd, EPOLL_CTL_MOD, fd, &ev);
      conn->want_write = false;
    }
    return true;
  };
  // Accepts every connection waiting in the listen backlog.
  auto accept_pending = [&] {
    while (true) {
      int conn_fd = ::accept4(tcp->listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (conn_fd < 0) {
        return;
      }
      if (conns.size() >= static_cast<size_t>(config_.max_tcp_connections)) {
        tcp->stats.tcp_rejected.fetch_add(1, std::memory_order_relaxed);
        ::close(conn_fd);
        continue;
      }
      int on = 1;
      ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn_fd;
      if (::epoll_ctl(tcp->epoll_fd, EPOLL_CTL_ADD, conn_fd, &ev) != 0) {
        ::close(conn_fd);
        continue;
      }
      conns[conn_fd].last_active = Clock::now();
      tcp->stats.tcp_connections.fetch_add(1, std::memory_order_relaxed);
    }
  };

  while (true) {
    if (stopping_.load(std::memory_order_relaxed) && !draining) {
      // Graceful shutdown: stop accepting, keep serving what is connected.
      // A client whose connect() completed before Stop() is connected even
      // if this worker has not accepted it yet, so the backlog is taken in
      // once before the listener goes.
      accept_pending();
      draining = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
      ::epoll_ctl(tcp->epoll_fd, EPOLL_CTL_DEL, tcp->listen_fd, nullptr);
    }
    if (draining && (conns.empty() || Clock::now() >= drain_deadline)) {
      break;
    }
    int ready = ::epoll_wait(tcp->epoll_fd, events, 64, 200);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < ready; ++i) {
      int fd = events[i].data.fd;
      if (fd == stop_event_) {
        continue;  // the flag is re-checked at the top of the loop
      }
      if (fd == tcp->listen_fd) {
        accept_pending();
        continue;
      }
      auto it = conns.find(fd);
      if (it == conns.end()) {
        continue;  // closed earlier in this batch
      }
      TcpConn* conn = &it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !flush(fd, conn)) {
        close_conn(fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) == 0) {
        continue;
      }
      bool peer_closed = false;
      while (true) {
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          conn->decoder.Feed(buffer, static_cast<size_t>(n));
          conn->last_active = Clock::now();
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        peer_closed = true;  // orderly close or hard error
        break;
      }
      std::vector<uint8_t> message;
      while (conn->decoder.Next(&message)) {
        RefreshShard(&tcp->shard, &tcp->shard_generation);
        Clock::time_point started = Clock::now();
        // The TCP path encodes against kMaxTcpPayload — this is the channel
        // that serves in full what the UDP clamp truncated (TC=1). The
        // payload limit is part of the cache key, so TCP-sized answers never
        // leak into UDP-sized lookups (or vice versa).
        ServeContext ctx{cache_.get(), tcp->shard_generation};
        ServeOutcome outcome = ServePacket(tcp->shard.get(), message.data(), message.size(),
                                           kMaxTcpPayload, &tcp->stats, ctx);
        tcp->stats.tcp_queries.fetch_add(1, std::memory_order_relaxed);
        tcp->stats.RecordLatencyUs(ElapsedUs(started));
        Status framed = AppendTcpFrame(&conn->outbound, outcome.wire);
        DNSV_CHECK_MSG(framed.ok(), framed.message());  // encoder capped at kMaxTcpPayload
      }
      if (!flush(fd, conn)) {
        close_conn(fd);
        continue;
      }
      // An orderly close still gets the responses already queued; drop the
      // connection once nothing is pending.
      if (peer_closed && conn->outbound.empty()) {
        close_conn(fd);
      }
    }
    // Reap idle connections (a TCP client that connects and goes silent
    // would otherwise hold one of max_tcp_connections slots forever).
    Clock::time_point now = Clock::now();
    std::vector<int> expired;
    for (const auto& [fd, conn] : conns) {
      if (now - conn.last_active > std::chrono::milliseconds(config_.tcp_idle_timeout_ms)) {
        expired.push_back(fd);
      }
    }
    for (int fd : expired) {
      tcp->stats.tcp_timeouts.fetch_add(1, std::memory_order_relaxed);
      close_conn(fd);
    }
  }
  for (auto& [fd, conn] : conns) {
    ::close(fd);
  }
}

void DnsServer::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  // Shutting the read side wakes a UDP worker blocked in recvmmsg, even on
  // an unconnected socket (the call itself reports ENOTCONN); the TCP worker
  // waits in epoll and is woken by the stop eventfd.
  for (auto& worker : udp_workers_) {
    ::shutdown(worker->fd, SHUT_RD);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t written = ::write(stop_event_, &one, sizeof(one));
  for (auto& worker : udp_workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  if (tcp_worker_ != nullptr && tcp_worker_->thread.joinable()) {
    tcp_worker_->thread.join();
  }
  final_udp_rx_drops_ = UdpRxDrops();
  for (auto& worker : udp_workers_) {
    CloseIfOpen(&worker->fd);
  }
  if (tcp_worker_ != nullptr) {
    CloseIfOpen(&tcp_worker_->listen_fd);
    CloseIfOpen(&tcp_worker_->epoll_fd);
  }
  CloseIfOpen(&stop_event_);
}

DnsServer::~DnsServer() { Stop(); }

Status DnsServer::Reload(const ZoneConfig& zone, std::string source) {
  return snapshots_.Publish(config_.version, zone, std::move(source), config_.backend);
}

Status DnsServer::ReloadFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::Error("cannot open zone file " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  Result<ZoneConfig> parsed = ParseZoneText(text.str());
  if (!parsed.ok()) {
    return Status::Error("zone parse error: " + parsed.error());
  }
  return Reload(parsed.value(), path);
}

uint64_t DnsServer::UdpRxDrops() const {
  uint64_t drops = 0;
  for (const auto& worker : udp_workers_) {
    uint32_t meminfo[SK_MEMINFO_VARS] = {};
    socklen_t len = sizeof(meminfo);
    if (::getsockopt(worker->fd, SOL_SOCKET, SO_MEMINFO, meminfo, &len) == 0) {
      drops += meminfo[SK_MEMINFO_DROPS];
    }
  }
  return drops;
}

StatsSnapshot DnsServer::Stats() const {
  StatsSnapshot snapshot;
  snapshot.generation = snapshots_.generation();
  for (const auto& worker : udp_workers_) {
    snapshot.Add(worker->stats);
  }
  snapshot.udp_rx_drops = stopped_ ? final_udp_rx_drops_ : UdpRxDrops();
  if (tcp_worker_ != nullptr) {
    snapshot.Add(tcp_worker_->stats);
  }
  return snapshot;
}

SignalReloader::SignalReloader(DnsServer* server, std::string zone_path) {
  // Belt and braces: DnsServer::Start blocks SIGHUP already, but a reloader
  // must be safe to create first.
  sigset_t hup;
  sigemptyset(&hup);
  sigaddset(&hup, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &hup, nullptr);
  thread_ = std::thread([this, server, path = std::move(zone_path)] {
    sigset_t watched;
    sigemptyset(&watched);
    sigaddset(&watched, SIGHUP);
    while (!stop_.load(std::memory_order_relaxed)) {
      timespec timeout{};
      timeout.tv_nsec = 200 * 1000 * 1000;
      if (sigtimedwait(&watched, nullptr, &timeout) != SIGHUP) {
        continue;  // timeout or EINTR
      }
      Status reloaded = server->ReloadFromFile(path);
      if (reloaded.ok()) {
        reloads_.fetch_add(1, std::memory_order_relaxed);
      } else {
        failures_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "SIGHUP reload of %s failed (still serving the old zone): %s\n",
                     path.c_str(), reloaded.message().c_str());
      }
    }
  });
}

SignalReloader::~SignalReloader() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace dnsv
