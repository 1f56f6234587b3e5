#include "perfbench/bench.h"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dnsv::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

namespace {

// Field `index` of /proc/self/task/<tid>/schedstat: "on-cpu-ns wait-ns slices".
int64_t SchedStat(pid_t tid, int index) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  int64_t fields[2];
  for (int i = 0; i <= index; ++i) {
    if (!(in >> fields[i])) {
      return -1;
    }
  }
  return fields[index];
}

}  // namespace

int64_t ThreadCpuNs(pid_t tid) { return SchedStat(tid, 0); }

int64_t ThreadWaitNs(pid_t tid) { return SchedStat(tid, 1); }

int64_t HostStealTicks() {
  // The first line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t fields[8];
  if (!(in >> cpu) || cpu != "cpu") {
    return -1;
  }
  for (int64_t& field : fields) {
    if (!(in >> field)) {
      return -1;
    }
  }
  return fields[7];
}

std::vector<pid_t> ListThreads() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t Rng::Next() {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint16_t SpanRecorder::NameId(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

uint32_t SpanRecorder::Add(uint16_t name, uint64_t start_ns, uint64_t end_ns, uint32_t parent,
                           uint64_t request, uint8_t thread) {
  spans_.push_back(Span{start_ns, end_ns, request, parent, name, thread});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    return out;
  }
  for (const Span& span : spans_) {
    if (span.name == it->second) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

double SpanRecorder::TotalNs(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) {
    total += d;
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, uint64_t max_requests) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  uint64_t origin = ~uint64_t{0};
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start_ns);
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (max_requests != 0 && span.request >= max_requests) {
      continue;
    }
    // Complete ("X") events in microseconds; the span id, parent and request
    // travel in args so the nesting survives beyond the viewer's stacking.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                 first ? "" : ",\n", JsonEscape(names_[span.name]).c_str(),
                 static_cast<unsigned>(span.thread),
                 static_cast<double>(span.start_ns - origin) / 1000.0,
                 static_cast<double>(span.end_ns - span.start_ns) / 1000.0, i,
                 span.parent == kNoParent ? -1LL : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  body_ += buffer;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace dnsv::perfbench
