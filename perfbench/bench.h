// Shared plumbing of the repository benchmark: clocks, order statistics,
// per-thread CPU time, peak RSS, an in-memory span recorder that exports the
// Chrome trace-event format, and a flat JSON object writer for the result
// line the runner (perfbench/run.py) consumes.
#ifndef DNSV_PERFBENCH_BENCH_H_
#define DNSV_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dnsv::perfbench {

// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

// Quantile q in [0, 1] of `values` (nearest rank on a sorted copy); 0 when
// empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }
double Mean(const std::vector<double>& values);

// CPU time (ns) consumed so far by thread `tid` of this process, read from
// /proc/self/task/<tid>/schedstat; -1 when unreadable.
int64_t ThreadCpuNs(pid_t tid);
// Time (ns) thread `tid` has so far spent ready to run but waiting for a CPU
// that other tasks held, from the same file; -1 when unreadable.
int64_t ThreadWaitNs(pid_t tid);
// Time the hypervisor ran something else on this machine's CPUs, summed
// over all of them, in clock ticks, from /proc/stat; -1 when unreadable.
int64_t HostStealTicks();
// Thread ids currently alive in this process.
std::vector<pid_t> ListThreads();
// VmHWM of this process in MiB.
double PeakRssMb();

// SplitMix64: the benchmark's only random source, so a seed pins every input.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// Spans kept in memory while a traced run executes. Each span records its
// name, start and end, its parent span and the request it belongs to; the
// per-layer metrics are folded from them and a bounded prefix is exported
// as Chrome trace-event JSON (chrome://tracing and ui.perfetto.dev open it).
class SpanRecorder {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;

  // Interns `name`; the returned id is what Add takes.
  uint16_t NameId(const std::string& name);
  // Appends a span and returns its index (usable as a parent id).
  uint32_t Add(uint16_t name, uint64_t start_ns, uint64_t end_ns, uint32_t parent,
               uint64_t request, uint8_t thread = 0);
  // Sets the end of a span added before its children were known.
  void End(uint32_t span, uint64_t end_ns) { spans_[span].end_ns = end_ns; }

  // Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  double TotalNs(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  // Writes the spans of requests < max_requests (all when 0) as a Chrome
  // trace. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path, uint64_t max_requests) const;

 private:
  struct Span {
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t request;
    uint32_t parent;
    uint16_t name;
    uint8_t thread;
  };
  std::vector<std::string> names_;
  std::map<std::string, uint16_t> ids_;
  std::vector<Span> spans_;
};

// A flat JSON object built key by key; nested objects are inserted as
// already-rendered text.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& text);

}  // namespace dnsv::perfbench

#endif  // DNSV_PERFBENCH_BENCH_H_
