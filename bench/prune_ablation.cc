// Prune ablation: what the AbsIR dataflow pruner (src/analysis) buys the
// symbolic-execution stage. For each engine version the same zone is verified
// three times — pruning off, baseline (intraprocedural) pruning, and pruning
// fed by the interprocedural analysis suite (callgraph + summaries + SCCP +
// escape facts) — and the table compares paths explored, solver checks, and
// wall-clock across the `analysis: baseline|interproc` axis. The pruner is
// sound in both modes (a guard is rewritten only when its panic side is
// proved infeasible), so all three runs must agree on the verdict and every
// issue; the harness asserts exactly that before it reports any numbers, and
// additionally asserts the interprocedural mode never discharges fewer
// guards or leaves more solver checks than the baseline.
//
// Besides the human-readable table, the harness writes BENCH_prune.json
// (machine-readable, one record per version and analysis mode) into the
// working directory.
#include <cstdio>
#include <string>

#include "src/dnsv/pipeline.h"
#include "src/dns/zone.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

ZoneConfig AblationZone() {
  // Same all-features zone as the Fig. 12 harness: wildcard + delegation +
  // CNAME exercise every resolution layer, so every layer's panic guards are
  // in scope for the pruner.
  return ParseZoneText(R"(
$ORIGIN example.com.
@        SOA   ns1 2024
@        NS    ns1.example.com.
ns1      A     192.0.2.1
www      A     192.0.2.10
alias    CNAME www
*.dyn    A     192.0.2.99
sub      NS    ns1.sub.example.com.
ns1.sub  A     192.0.2.51
)").value();
}

std::string IssueDigest(const VerificationReport& report) {
  std::string digest;
  for (const VerificationIssue& issue : report.issues) {
    digest += issue.ToString();
  }
  return digest;
}

struct Row {
  const char* version = "";
  VerificationReport off;
  VerificationReport baseline;
  VerificationReport interproc;
};

int RunAblation() {
  std::printf("Prune ablation: dataflow-discharged panic guards vs. plain exploration\n");
  std::printf("zone: example.com (wildcard + delegation + CNAME)\n");
  std::printf("analysis axis: baseline = PR-2 intraprocedural pruner; interproc =\n");
  std::printf("SCCP + callee summaries + escape facts feeding the same pruner\n\n");
  std::printf("%-8s %7s | %8s %10s %10s | %10s %10s | %s\n", "version", "paths",
              "checks", "checks.base", "checks.ipa", "disch.base", "disch.ipa",
              "pruned base/ipa");

  VerifyContext context;
  std::vector<Row> rows;
  bool sound = true;
  bool interproc_dominates = true;
  for (EngineVersion version : AllEngineVersions()) {
    Row row;
    row.version = EngineVersionName(version);
    VerifyOptions options;
    options.prune = false;
    row.off = RunVerifyPipeline(&context, version, AblationZone(), options);
    options.prune = true;
    options.prune_interproc = false;
    row.baseline = RunVerifyPipeline(&context, version, AblationZone(), options);
    options.prune_interproc = true;
    row.interproc = RunVerifyPipeline(&context, version, AblationZone(), options);

    // Soundness gate: identical verdict and identical issue list across all
    // three modes, or the numbers below are meaningless.
    for (const VerificationReport* pruned : {&row.baseline, &row.interproc}) {
      if (row.off.verified != pruned->verified || row.off.aborted != pruned->aborted ||
          IssueDigest(row.off) != IssueDigest(*pruned)) {
        std::printf("%-8s SOUNDNESS VIOLATION: pruned run disagrees with baseline\n",
                    row.version);
        sound = false;
      }
    }
    // Monotonicity gate: the interprocedural facts may only help.
    if (row.interproc.panics_discharged < row.baseline.panics_discharged ||
        row.interproc.solver.z3_checks > row.baseline.solver.z3_checks) {
      std::printf("%-8s REGRESSION: interproc analysis did worse than baseline\n",
                  row.version);
      interproc_dominates = false;
    }
    std::printf("%-8s %7lld | %8lld %10lld %10lld | %10lld %10lld | %lld/%lld\n",
                row.version, static_cast<long long>(row.off.engine_paths),
                static_cast<long long>(row.off.solver.z3_checks),
                static_cast<long long>(row.baseline.solver.z3_checks),
                static_cast<long long>(row.interproc.solver.z3_checks),
                static_cast<long long>(row.baseline.panics_discharged),
                static_cast<long long>(row.interproc.panics_discharged),
                static_cast<long long>(row.baseline.paths_pruned),
                static_cast<long long>(row.interproc.paths_pruned));
    rows.push_back(std::move(row));
  }

  std::string json = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    struct Mode {
      const char* analysis;
      const VerificationReport* report;
    };
    const Mode modes[] = {{"baseline", &row.baseline}, {"interproc", &row.interproc}};
    for (size_t m = 0; m < 2; ++m) {
      const Mode& mode = modes[m];
      json += StrCat("  {\"version\": \"", row.version, "\", \"analysis\": \"",
                     mode.analysis, "\", \"paths_off\": ", row.off.engine_paths,
                     ", \"paths_on\": ", mode.report->engine_paths,
                     ", \"solver_checks_off\": ", row.off.solver.z3_checks,
                     ", \"solver_checks_on\": ", mode.report->solver.z3_checks,
                     ", \"seconds_off\": ", row.off.total_seconds,
                     ", \"seconds_on\": ", mode.report->total_seconds,
                     ", \"panics_discharged\": ", mode.report->panics_discharged,
                     ", \"paths_pruned\": ", mode.report->paths_pruned,
                     ", \"sccp_branches_folded\": ", mode.report->analysis.sccp_branches_folded,
                     ", \"verdicts_agree\": ", sound ? "true" : "false", "}",
                     i + 1 < rows.size() || m + 1 < 2 ? "," : "", "\n");
    }
  }
  json += "]\n";
  std::FILE* out = std::fopen("BENCH_prune.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_prune.json\n");
  }

  std::printf("expectation: identical verdicts, strictly fewer solver checks with\n");
  std::printf("pruning on, and interproc discharging at least as many guards as the\n");
  std::printf("baseline on every version; path counts match (discharged guards were\n");
  std::printf("never feasible).\n");
  return sound && interproc_dominates ? 0 : 1;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunAblation(); }
