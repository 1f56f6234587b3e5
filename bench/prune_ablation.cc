// Prune ablation: what the AbsIR dataflow pruner (src/analysis) buys the
// symbolic-execution stage. For each engine version the same zone is verified
// twice — pruning off, and pruning on (the interprocedural analysis suite:
// callgraph + summaries + SCCP + escape facts feeding the panic-guard
// discharge) — and the table compares paths explored, solver checks, and
// wall-clock. The pruner is sound (a guard is rewritten only when its panic
// side is proved infeasible), so both runs must agree on the verdict, every
// issue and the path count; the harness asserts exactly that, plus that
// pruning discharges guards and never leaves more solver checks, and exits
// non-zero otherwise.
//
// Besides the human-readable table, the harness writes BENCH_prune.json
// (machine-readable, one record per version) into the working directory.
#include <cstdio>
#include <string>
#include <vector>

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
  VerificationReport pruned;
};

int RunAblation() {
  std::printf("Prune ablation: dataflow-discharged panic guards vs. plain exploration\n");
  std::printf("zone: example.com (wildcard + delegation + CNAME)\n\n");
  std::printf("%-8s %7s | %10s %10s | %10s %10s\n", "version", "paths", "checks.off",
              "checks.on", "discharged", "pruned");

  VerifyContext context;
  std::vector<Row> rows;
  bool ok = true;
  for (EngineVersion version : AllEngineVersions()) {
    Row row;
    row.version = EngineVersionName(version);
    VerifyOptions options;
    options.prune = false;
    row.off = RunVerifyPipeline(&context, version, AblationZone(), options);
    options.prune = true;
    row.pruned = RunVerifyPipeline(&context, version, AblationZone(), options);
    const StageStats* prune = row.pruned.FindStage("prune");

    // Soundness gate: identical verdict, issue list and path count, or the
    // numbers below are meaningless.
    if (row.off.verified != row.pruned.verified || row.off.aborted != row.pruned.aborted ||
        IssueDigest(row.off) != IssueDigest(row.pruned) ||
        row.off.engine_paths != row.pruned.engine_paths || prune == nullptr) {
      std::printf("%-8s SOUNDNESS VIOLATION: pruned run disagrees with the unpruned one\n",
                  row.version);
      ok = false;
      continue;
    }
    // Profit gate: guards discharged, and never more solver work.
    if (prune->panics_discharged <= 0 ||
        row.pruned.solver.z3_checks > row.off.solver.z3_checks) {
      std::printf("%-8s REGRESSION: pruning discharged nothing or added solver checks\n",
                  row.version);
      ok = false;
    }
    std::printf("%-8s %7lld | %10lld %10lld | %10lld %10lld\n", row.version,
                static_cast<long long>(row.off.engine_paths),
                static_cast<long long>(row.off.solver.z3_checks),
                static_cast<long long>(row.pruned.solver.z3_checks),
                static_cast<long long>(prune->panics_discharged),
                static_cast<long long>(prune->paths_pruned));
    rows.push_back(std::move(row));
  }

  std::string json = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const StageStats& prune = *row.pruned.FindStage("prune");
    json += StrCat("  {\"version\": \"", row.version, "\", \"paths_off\": ", row.off.engine_paths,
                   ", \"paths_on\": ", row.pruned.engine_paths,
                   ", \"solver_checks_off\": ", row.off.solver.z3_checks,
                   ", \"solver_checks_on\": ", row.pruned.solver.z3_checks,
                   ", \"seconds_off\": ", row.off.total_seconds,
                   ", \"seconds_on\": ", row.pruned.total_seconds,
                   ", \"panics_discharged\": ", prune.panics_discharged,
                   ", \"paths_pruned\": ", prune.paths_pruned,
                   ", \"sccp_branches_folded\": ", row.pruned.analysis.sccp_branches_folded,
                   ", \"verdicts_agree\": true}", i + 1 < rows.size() ? "," : "", "\n");
  }
  json += "]\n";
  std::FILE* out = std::fopen("BENCH_prune.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_prune.json\n");
  }

  std::printf("expectation: identical verdicts and path counts (discharged guards were\n");
  std::printf("never feasible), guards discharged and no more solver checks with\n");
  std::printf("pruning on, on every version.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunAblation(); }
