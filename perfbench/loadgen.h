// Open-loop UDP load generator: one thread, a few connected sockets (each an
// independent resolver), sendmmsg/recvmmsg batches. Sends follow a fixed
// schedule at the offered rate, taking the sockets in turn: paced rather
// than Poisson arrivals, because on a shared VM Poisson bursts made the p99
// vary by a third between runs and pacing by a tenth. Every query is timed
// from its scheduled send time, so a stall is charged to every query queued
// behind it, and every answer is compared byte for byte (ID masked) with the
// reference.
#ifndef DNSV_PERFBENCH_LOADGEN_H_
#define DNSV_PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/traffic.h"

namespace dnsv::perfbench {

struct StepResult {
  double rate = 0;          // offered queries/s
  uint64_t sent = 0;
  uint64_t answered = 0;    // matched the reference
  uint64_t timeouts = 0;    // unanswered after every attempt
  uint64_t mismatches = 0;  // answered, but not byte-equal to the reference
  uint64_t retries = 0;     // queries sent again after a silence
  uint64_t backlog = 0;     // unanswered when the last query was sent
  // Latency (µs) from scheduled send to answer; a failure counts as answered
  // when its last attempt timed out (60 ms).
  double p99_us = 0;
  std::vector<double> window_p99_us;  // per equal slice of the sending window
  std::vector<double> window_fail_ratio;
  // Pooled over the quarter of the windows that other tasks disturbed least:
  // ranked by the CPU time the hypervisor stole, the time the worker waited
  // for a CPU another task held, and the generator's worst send lag. None of
  // these comes from the server's answers, so a slow answer never drops its
  // own window; stalls from other tenants, which hit a varying number of
  // windows, mostly do.
  double quiet_p50_us = 0;
  double quiet_p99_us = 0;
  int stolen_windows = 0;  // windows during which the hypervisor stole CPU time
  int waited_windows = 0;  // windows in which the worker waited > 100 µs for a CPU
  double lag_p99_us = 0;        // how late sends went out
  // Share of the generator's wall time spent sending, receiving and
  // matching rather than waiting (it spins between sends, so its CPU time
  // would always read 1).
  double gen_busy_ratio = 0;
  double worker_cpu_ratio = 0;  // server worker thread CPU time / wall time
  double worker_cpu_s = 0;      // server worker thread CPU time over the window

  uint64_t failures() const { return timeouts + mismatches; }
  double fail_ratio() const {
    return sent == 0 ? 0 : static_cast<double>(failures()) / static_cast<double>(sent);
  }
};

class LoadGenerator {
 public:
  // `worker_tid` is the server worker thread whose CPU share is sampled.
  LoadGenerator(uint16_t port, const Vocabulary& vocab, int sockets, pid_t worker_tid);

  // Offers `rate` queries/s for `seconds`, drawing questions from `next`,
  // then waits up to a fixed drain time for the last answers. Latency
  // percentiles are also reported per each of `windows` equal slices.
  StepResult Run(double rate, double seconds, int windows,
                 const std::function<uint32_t()>& next);

 private:
  uint16_t port_;
  const Vocabulary& vocab_;
  int sockets_;
  pid_t worker_tid_;
  std::vector<size_t> question_end_;  // wire offset just past each query's question
};

}  // namespace dnsv::perfbench

#endif  // DNSV_PERFBENCH_LOADGEN_H_
