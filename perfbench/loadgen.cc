#include "perfbench/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>

namespace dnsv::perfbench {
namespace {

constexpr int kBatch = 32;  // datagrams per sendmmsg/recvmmsg
// A query unanswered this long is sent again under a fresh id, as a
// resolver would, up to kAttempts sends in all; unanswered after the last it
// has failed. Its latency still runs from the first scheduled send.
constexpr uint64_t kRetryNs = 20'000'000;
constexpr int kAttempts = 3;
constexpr int kMaxRetriesPerPass = 8;
// The latency percentiles pool this fraction of the windows: the least
// disturbed quarter (see StepResult::quiet_p99_us), so that the pool stays
// clean while other tenants disturb up to three quarters of the windows.
constexpr int kQuietFraction = 4;
constexpr uint64_t kDrainNs = kAttempts * kRetryNs + 10'000'000;  // after the window closes
// Gaps shorter than this are spun, not slept: a VM's timer wakeups are late
// by tens of microseconds, which would show up as send lag.
constexpr uint64_t kSpinNs = 1'000'000;
constexpr uint32_t kFailedLatency = 0xffffffffu;  // a failure misses every latency limit
// In the percentiles a failed query counts as answered when its last
// attempt timed out: later than any limit, and still a finite number.
constexpr double kFailedLatencyUs = kAttempts * kRetryNs / 1000.0;

int OpenSocket(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return -1;
  }
  int bytes = 4 << 20;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, &bytes, sizeof(bytes)) != 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

size_t QuestionEnd(const std::vector<uint8_t>& wire) {
  size_t pos = 12;
  while (pos < wire.size() && wire[pos] != 0) {
    pos += 1 + wire[pos];
  }
  return std::min(pos + 5, wire.size());  // root byte + QTYPE + QCLASS
}

struct Slot {
  uint64_t scheduled_ns = 0;
  uint64_t sent_ns = 0;
  uint32_t question = 0;
  uint16_t window = 0;
  uint8_t attempt = 0;  // sends so far, minus one
  bool live = false;
};

// A send awaiting its retry deadline; stale once its slot was answered or
// reused.
struct Sent {
  uint64_t sent_ns;
  int socket;
  uint16_t id;
};

}  // namespace

LoadGenerator::LoadGenerator(uint16_t port, const Vocabulary& vocab, int sockets,
                             pid_t worker_tid)
    : port_(port), vocab_(vocab), sockets_(sockets), worker_tid_(worker_tid) {
  for (const Question& question : vocab.questions) {
    question_end_.push_back(QuestionEnd(question.wire));
  }
  // Sleep no longer than asked: the default 50 µs timer slack would show up
  // as send lag at every idle wait.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
}

StepResult LoadGenerator::Run(double rate, double seconds, int windows,
                              const std::function<uint32_t()>& next_question) {
  StepResult result;
  result.rate = rate;
  const int n = sockets_;
  std::vector<int> fds;
  for (int s = 0; s < n; ++s) {
    int fd = OpenSocket(port_);
    if (fd >= 0) {
      fds.push_back(fd);
    }
  }
  if (static_cast<int>(fds.size()) != n) {
    for (int fd : fds) {
      ::close(fd);
    }
    result.timeouts = result.sent = 1;  // cannot offer load: the step fails
    return result;
  }
  std::vector<pollfd> pfds(n);
  for (int s = 0; s < n; ++s) {
    pfds[s] = {fds[s], POLLIN, 0};
  }

  std::vector<std::vector<Slot>> slots(n, std::vector<Slot>(65536));
  std::vector<uint16_t> next_id(n, 0);
  std::deque<Sent> awaiting;  // in send order, so deadlines come due in order
  std::vector<std::vector<uint32_t>> latency(windows);
  std::vector<uint32_t> lag;
  lag.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  for (auto& w : latency) {
    w.reserve(static_cast<size_t>(rate * seconds / windows * 1.1) + 16);
  }

  // Per-socket send batch and one shared receive batch.
  std::vector<std::array<uint8_t, 512>> send_buf(static_cast<size_t>(n) * kBatch);
  std::vector<mmsghdr> send_msgs(static_cast<size_t>(n) * kBatch);
  std::vector<iovec> send_iov(static_cast<size_t>(n) * kBatch);
  std::vector<int> pending(n, 0);
  std::vector<std::array<uint8_t, 4096>> recv_buf(kBatch);
  mmsghdr recv_msgs[kBatch];
  iovec recv_iov[kBatch];

  uint64_t outstanding = 0;
  auto fail_slot = [&](Slot* slot) {
    latency[slot->window].push_back(kFailedLatency);
    slot->live = false;
    --outstanding;
  };
  // Claims the next id on socket `s` for `question`, failing whatever query
  // still held it (its 16-bit id wrapped while it was unanswered).
  auto claim = [&](int s, uint64_t scheduled, uint32_t question, uint16_t window,
                   uint64_t now) -> uint16_t {
    uint16_t id = next_id[s]++;
    Slot& slot = slots[s][id];
    if (slot.live) {
      fail_slot(&slot);
    }
    slot = Slot{scheduled, now, question, window, 0, true};
    awaiting.push_back(Sent{now, s, id});
    return id;
  };
  auto encode = [&](uint8_t* out, uint32_t question, uint16_t id) {
    const std::vector<uint8_t>& wire = vocab_.questions[question].wire;
    std::memcpy(out, wire.data(), wire.size());
    out[0] = static_cast<uint8_t>(id >> 8);
    out[1] = static_cast<uint8_t>(id & 0xff);
    return wire.size();
  };
  auto flush = [&](int s) {
    mmsghdr* msgs = &send_msgs[static_cast<size_t>(s) * kBatch];
    int done = 0;
    while (done < pending[s]) {
      int sent = ::sendmmsg(fds[s], msgs + done, pending[s] - done, 0);
      if (sent > 0) {
        done += sent;
      } else if (sent < 0 && (errno == EAGAIN || errno == EINTR || errno == ENOBUFS)) {
        continue;  // loopback send queue momentarily full
      } else {
        break;  // unsent queries stay live and are retried
      }
    }
    pending[s] = 0;
  };
  // Resends queries whose retry deadline passed; fails those out of
  // attempts. At most kMaxRetriesPerPass per call, so that a burst of
  // retries after a server stall cannot hold up the send schedule: send lag
  // must reflect the host, not the server (see StepResult::quiet_p99_us).
  auto retry_overdue = [&](uint64_t now) {
    bool any = false;
    int resent = 0;
    while (!awaiting.empty() && awaiting.front().sent_ns + kRetryNs <= now &&
           resent < kMaxRetriesPerPass) {
      Sent sent = awaiting.front();
      awaiting.pop_front();
      Slot& slot = slots[sent.socket][sent.id];
      if (!slot.live || slot.sent_ns != sent.sent_ns) {
        continue;  // answered, or the id was reused since
      }
      any = true;
      if (slot.attempt + 1 >= kAttempts) {
        fail_slot(&slot);
        continue;
      }
      Slot first = slot;
      slot.live = false;  // the retry below takes over this query
      uint16_t id = claim(sent.socket, first.scheduled_ns, first.question, first.window, now);
      slots[sent.socket][id].attempt = static_cast<uint8_t>(first.attempt + 1);
      std::array<uint8_t, 512> buffer;
      size_t size = encode(buffer.data(), first.question, id);
      ::send(fds[sent.socket], buffer.data(), size, 0);
      ++result.retries;
      ++resent;
    }
    return any;
  };

  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t window_ns = std::max<uint64_t>(1, (end - start) / windows);
  const double interval_ns = 1e9 / rate;
  double next_send = static_cast<double>(start);

  // What took CPU from the run, sampled as each window opens: the
  // hypervisor's steal, and the time the worker waited for a CPU other tasks
  // held.
  struct Mark {
    int64_t steal_ticks = -1;
    int64_t worker_wait_ns = -1;
  };
  auto mark_now = [&] { return Mark{HostStealTicks(), ThreadWaitNs(worker_tid_)}; };
  std::vector<Mark> marks(windows + 1);
  std::vector<uint64_t> window_lag(windows, 0);  // worst send lag (ns)
  int marked = -1;                               // last window whose opening was marked
  int sending_window = 0;
  uint64_t busy_ns = 0;  // iterations that sent or received something
  int64_t worker_cpu_start = ThreadCpuNs(worker_tid_);
  uint64_t sample_start = NowNs();
  bool sending_done = false;
  while (true) {
    uint64_t now = NowNs();
    bool progressed = false;
    if (!sending_done && static_cast<uint64_t>(next_send) >= end) {
      // The sending window closed: sample the CPU shares over it and
      // remember how far answers trailed the offered load.
      sending_done = true;
      double wall = static_cast<double>(now - sample_start);
      result.gen_busy_ratio = static_cast<double>(busy_ns) / wall;
      int64_t worker_cpu = ThreadCpuNs(worker_tid_);
      if (worker_cpu >= 0 && worker_cpu_start >= 0) {
        result.worker_cpu_s = static_cast<double>(worker_cpu - worker_cpu_start) / 1e9;
        result.worker_cpu_ratio = result.worker_cpu_s * 1e9 / wall;
      }
      result.backlog = outstanding;
      marks[windows] = mark_now();
    }
    if (!sending_done && static_cast<uint64_t>(next_send) <= now) {
      int batched = 0;
      while (static_cast<uint64_t>(next_send) <= now && static_cast<uint64_t>(next_send) < end &&
             batched < 2 * kBatch) {
        int s = static_cast<int>(result.sent % static_cast<uint64_t>(n));
        if (pending[s] == kBatch) {
          flush(s);
        }
        uint64_t scheduled = static_cast<uint64_t>(next_send);
        uint32_t question = next_question();
        uint16_t window = static_cast<uint16_t>(std::min<uint64_t>(
            (scheduled - start) / window_ns, static_cast<uint64_t>(windows - 1)));
        ++outstanding;
        uint16_t id = claim(s, scheduled, question, window, now);
        size_t k = static_cast<size_t>(s) * kBatch + static_cast<size_t>(pending[s]);
        send_iov[k] = {send_buf[k].data(), encode(send_buf[k].data(), question, id)};
        std::memset(&send_msgs[k], 0, sizeof(send_msgs[k]));
        send_msgs[k].msg_hdr.msg_iov = &send_iov[k];
        send_msgs[k].msg_hdr.msg_iovlen = 1;
        ++pending[s];
        lag.push_back(static_cast<uint32_t>(std::min<uint64_t>(now - scheduled, kFailedLatency)));
        window_lag[window] = std::max(window_lag[window], now - scheduled);
        sending_window = window;
        ++result.sent;
        ++batched;
        next_send += interval_ns;
      }
      for (int s = 0; s < n; ++s) {
        if (pending[s] > 0) {
          flush(s);
        }
      }
      // Read after the sends went out, so the read itself delays none.
      if (sending_window > marked) {
        const Mark mark = mark_now();
        while (marked < sending_window) {
          marks[++marked] = mark;
        }
      }
      progressed = true;
    }

    for (int s = 0; s < n; ++s) {
      while (true) {
        for (int i = 0; i < kBatch; ++i) {
          recv_iov[i] = {recv_buf[i].data(), recv_buf[i].size()};
          std::memset(&recv_msgs[i], 0, sizeof(recv_msgs[i]));
          recv_msgs[i].msg_hdr.msg_iov = &recv_iov[i];
          recv_msgs[i].msg_hdr.msg_iovlen = 1;
        }
        int got = ::recvmmsg(fds[s], recv_msgs, kBatch, MSG_DONTWAIT, nullptr);
        if (got <= 0) {
          break;
        }
        progressed = true;
        uint64_t arrived = NowNs();
        for (int i = 0; i < got; ++i) {
          const uint8_t* bytes = recv_buf[i].data();
          size_t size = recv_msgs[i].msg_len;
          if (size < 12) {
            continue;
          }
          uint16_t id = static_cast<uint16_t>((bytes[0] << 8) | bytes[1]);
          Slot& slot = slots[s][id];
          if (!slot.live) {
            continue;  // a late answer to a query already retried or failed
          }
          if (MatchesReference(vocab_, slot.question, bytes, size)) {
            latency[slot.window].push_back(static_cast<uint32_t>(
                std::min<uint64_t>(arrived - slot.scheduled_ns, kFailedLatency - 1)));
            slot.live = false;
            --outstanding;
            ++result.answered;
            continue;
          }
          // A late answer to an earlier query that reused this id echoes a
          // different question; only an answer to this very question that
          // differs from the reference is a wrong answer.
          const std::vector<uint8_t>& wire = vocab_.questions[slot.question].wire;
          size_t qend = question_end_[slot.question];
          if (size < qend || std::memcmp(bytes + 12, wire.data() + 12, qend - 12) != 0) {
            continue;
          }
          ++result.mismatches;
          fail_slot(&slot);
        }
        if (got < kBatch) {
          break;
        }
      }
    }
    progressed = retry_overdue(NowNs()) || progressed;

    if (progressed) {
      busy_ns += NowNs() - now;
    } else {
      if (sending_done && (outstanding == 0 || now >= end + kDrainNs)) {
        break;
      }
      uint64_t wake = sending_done ? end + kDrainNs : static_cast<uint64_t>(next_send);
      if (!awaiting.empty()) {
        wake = std::min(wake, awaiting.front().sent_ns + kRetryNs);
      }
      if (wake > now + kSpinNs) {
        // Sleep until shortly before the next deadline or an answer arrives.
        timespec timeout{0, static_cast<long>(std::min<uint64_t>(wake - now - kSpinNs / 2,
                                                                 100'000'000))};
        ::ppoll(pfds.data(), static_cast<nfds_t>(n), &timeout, nullptr);
      }
    }
  }

  for (int s = 0; s < n; ++s) {
    for (Slot& slot : slots[s]) {
      if (slot.live) {
        fail_slot(&slot);
      }
    }
    ::close(fds[s]);
  }
  uint64_t failed_total = 0;
  std::vector<double> all;
  std::vector<std::vector<double>> values(windows);
  for (int w = 0; w < windows; ++w) {
    values[w].reserve(latency[w].size());
    uint64_t failed = 0;
    for (uint32_t ns : latency[w]) {
      failed += ns == kFailedLatency ? 1 : 0;
      values[w].push_back(ns == kFailedLatency ? kFailedLatencyUs : ns / 1000.0);
    }
    failed_total += failed;
    result.window_p99_us.push_back(Quantile(values[w], 0.99));
    result.window_fail_ratio.push_back(values[w].empty() ? 0
                                                         : static_cast<double>(failed) /
                                                               static_cast<double>(values[w].size()));
    all.insert(all.end(), values[w].begin(), values[w].end());
  }
  result.timeouts = failed_total - result.mismatches;
  result.p99_us = Quantile(all, 0.99);
  // Disturbance of a window (ns): CPU time stolen by the hypervisor (on any
  // CPU), the worker's wait for a CPU, and the generator's worst send lag.
  const double ns_per_tick = 1e9 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::vector<double> disturbance(windows, 0);
  for (int w = 0; w < windows; ++w) {
    // Steal reaches /proc/stat in whole ticks, so it can show up a window
    // late: a window also takes the steal of its neighbours.
    const int64_t steal_open = marks[std::max(w - 1, 0)].steal_ticks;
    const int64_t steal_close = marks[std::min(w + 2, windows)].steal_ticks;
    if (steal_open >= 0 && steal_close >= 0) {
      disturbance[w] += static_cast<double>(steal_close - steal_open) * ns_per_tick;
      result.stolen_windows += steal_close > steal_open ? 1 : 0;
    }
    const Mark& open = marks[w];
    const Mark& close = marks[w + 1];
    if (open.worker_wait_ns >= 0 && close.worker_wait_ns >= 0) {
      disturbance[w] += static_cast<double>(close.worker_wait_ns - open.worker_wait_ns);
      result.waited_windows += close.worker_wait_ns - open.worker_wait_ns > 100'000 ? 1 : 0;
    }
    disturbance[w] += static_cast<double>(window_lag[w]);
  }
  std::vector<int> by_disturbance(windows);
  for (int w = 0; w < windows; ++w) {
    by_disturbance[w] = w;
  }
  std::stable_sort(by_disturbance.begin(), by_disturbance.end(),
                   [&](int a, int b) { return disturbance[a] < disturbance[b]; });
  std::vector<double> quiet;
  for (int i = 0; i < std::max(1, windows / kQuietFraction); ++i) {
    quiet.insert(quiet.end(), values[by_disturbance[i]].begin(), values[by_disturbance[i]].end());
  }
  result.quiet_p50_us = Quantile(quiet, 0.50);
  result.quiet_p99_us = Quantile(quiet, 0.99);
  std::vector<double> lags(lag.begin(), lag.end());
  result.lag_p99_us = Quantile(lags, 0.99) / 1000.0;
  return result;
}

}  // namespace dnsv::perfbench
