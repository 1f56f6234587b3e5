// The benchmark's workloads. Each run fills a RunOutput: the end-to-end
// numbers (tracing off), the per-layer numbers (traced run), and the
// correctness verdict. perfbench/run.py turns it into the result line.
#ifndef DNSV_PERFBENCH_WORKLOADS_H_
#define DNSV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace dnsv::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace output of a traced run
  std::string work_dir;    // private scratch space (the artifact store lives here)
};

struct RunOutput {
  std::string input_hash;  // identifies the generated inputs
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // each one makes the run incorrect
  JsonObject e2e;
  JsonObject layers;

  void Problem(const std::string& what) { problems.push_back(what); }
};

bool IsServeWorkload(const std::string& name);
bool IsVerifyWorkload(const std::string& name);

// Brings the workload to the point where timing would start, then returns.
// The runner times whole processes of this, so it measures a cold start.
bool SetupServe(const std::string& workload, std::string* error);
void SetupVerify(const RunOptions& options);

void RunServe(const RunOptions& options, RunOutput* out);
void RunVerify(const RunOptions& options, RunOutput* out);

}  // namespace dnsv::perfbench

#endif  // DNSV_PERFBENCH_WORKLOADS_H_
