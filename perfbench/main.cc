// perfbench: the repository benchmark's measuring program.
//
//   perfbench setup <workload> --work-dir DIR
//       Brings one workload to the point where timing starts, prints
//       "ready" and exits. The runner times whole processes of this.
//   perfbench run <workload> --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-out FILE]
//       Runs the workload and prints one JSON object as its last stdout
//       line: the correctness verdict, the end-to-end numbers and, with
//       --trace 1, the per-layer numbers.
//
// Workloads: udp-zipf, udp-miss, verify-release. Normally run
// through perfbench/run.py, which builds this program and prints the
// benchmark's result line (see perfbench/README.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

namespace dnsv::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench setup <workload> --work-dir DIR\n"
               "       perfbench run <workload> --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  // Hermetic: the store and solver overrides the pipeline honours must not
  // leak in from the environment.
  for (const char* name : {"DNSV_STORE_DIR", "DNSV_STORE_FORCE", "DNSV_SOLVER_FORCE"}) {
    ::unsetenv(name);
  }
  if (argc < 3) {
    return Usage();
  }
  const std::string mode = argv[1];
  RunOptions options;
  options.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  const bool serve = IsServeWorkload(options.workload);
  if ((!serve && !IsVerifyWorkload(options.workload)) || options.work_dir.empty() ||
      options.seconds <= 0) {
    return Usage();
  }

  if (mode == "setup") {
    std::string error;
    if (!serve) {
      SetupVerify(options);
    } else if (!SetupServe(options.workload, &error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
  }
  if (mode != "run") {
    return Usage();
  }

  RunOutput out;
  if (serve) {
    RunServe(options, &out);
  } else {
    RunVerify(options, &out);
  }
  std::string problems = "[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i == 0 ? "\"" : ", \"") + JsonEscape(out.problems[i]) + "\"";
    std::fprintf(stderr, "PROBLEM: %s\n", out.problems[i].c_str());
  }
  problems += "]";
  JsonObject result;
  result.Str("workload", options.workload)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Str("input_hash", out.input_hash)
      .Bool("correct", out.problems.empty())
      .Int("attempted", static_cast<int64_t>(out.attempted))
      .Int("failed", static_cast<int64_t>(out.failed))
      .Raw("problems", problems)
      .Raw("e2e", out.e2e.Render())
      .Raw("layers", out.layers.Render());
  std::printf("%s\n", result.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace dnsv::perfbench

int main(int argc, char** argv) { return dnsv::perfbench::Main(argc, argv); }
