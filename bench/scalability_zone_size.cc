// Scalability sweep (not a paper figure, but the question every §8 reader
// asks): how does whole-engine verification time grow with zone size? The
// engine exploration grows with tree shape; the spec side grows with the
// record count because rrlookup filters the whole list per path.
#include <cstdio>

#include "src/dnsv/pipeline.h"
#include "src/zonegen/zonegen.h"

namespace dnsv {
namespace {

int RunScalability() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("Scalability: golden-engine verification time vs zone size\n\n");
  std::printf("%8s %8s %10s %12s %14s %12s\n", "names", "records", "time (s)",
              "engine paths", "solver checks", "verdict");
  VerifyContext context;  // one golden-engine compile across the whole sweep
  for (int names : {2, 4, 6, 8}) {
    ZoneGenOptions options;
    options.max_names = names;
    options.max_depth = 2;
    ZoneConfig zone = GenerateZone(17, options);  // same seed: nested workloads
    VerificationReport report = RunVerifyPipeline(&context, EngineVersion::kGolden, zone);
    std::printf("%8d %8zu %10.2f %12lld %14lld %12s\n", names, zone.records.size(),
                report.total_seconds, static_cast<long long>(report.engine_paths),
                static_cast<long long>(report.solver.z3_checks),
                report.aborted ? "ABORTED" : report.verified ? "verified" : "issues");
  }
  std::printf("\nshape: super-linear in record count (engine paths x spec paths per path),\n");
  std::printf("which is why the paper verifies per-zone snapshots rather than one giant\n");
  std::printf("configuration, and why concrete domain trees (§6.5) matter.\n");
  return 0;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunScalability(); }
