// Solver-layer ablation: what the query cache and the interval pre-solver
// (src/smt/backend.h) buy on the Fig.-11 zone. For each engine version the
// same verification runs under two configurations — direct-to-Z3 and
// cache + pre-solver — and the table compares Z3 checks, cache hit rate,
// pre-solver discharge rate, and wall-clock. The layers are sound by
// construction (verdict-only caching, model replay), so both runs must
// agree on the verdict and every counterexample byte-for-byte; the harness
// asserts exactly that before it reports any numbers.
//
// Besides the human-readable table, the harness writes BENCH_solver.json
// (machine-readable, one record per version per config) into the working
// directory.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

std::string IssueDigest(const VerificationReport& report) {
  std::string digest = StrCat("verified=", report.verified ? 1 : 0,
                              " aborted=", report.aborted ? 1 : 0, ";");
  for (const VerificationIssue& issue : report.issues) {
    digest += issue.ToString();
  }
  return digest;
}

struct Config {
  const char* name = "";
  SolverLayering layering = SolverLayering::kDirect;
};

constexpr Config kConfigs[] = {
    {"direct", SolverLayering::kDirect},
    {"cache+presolve", SolverLayering::kCachePresolve},
};

struct Cell {
  VerificationReport report;
  double hit_rate = 0;        // cache hits / layered queries
  double discharge_rate = 0;  // presolver discharges / layered queries
};

int RunAblation() {
  // The environment override would collapse the configurations into one and
  // make the comparison meaningless; this harness owns the configuration.
  unsetenv("DNSV_SOLVER_FORCE");

  std::printf("Solver-layer ablation: query cache + interval pre-solver vs. direct Z3\n");
  std::printf("zone: Fig. 11 (example.com with cs/web.cs/zoo.cs subtree)\n\n");
  std::printf("%-8s %-15s %9s %9s %10s %10s %9s\n", "version", "config", "queries",
              "z3", "hit rate", "discharge", "wall (s)");

  VerifyContext context;
  bool sound = true;
  std::string json = "[\n";
  bool first_record = true;
  for (EngineVersion version : AllEngineVersions()) {
    std::vector<Cell> cells;
    // Each configuration gets a fresh cache: hit rates measure one run over
    // one version, not leftovers from the previous version (production uses
    // the shared process-wide cache and does even better).
    for (const Config& config : kConfigs) {
      QueryCache cache;
      VerifyOptions options;
      options.use_summaries = true;
      options.solver.layering = config.layering;
      options.solver.cache = &cache;
      Cell cell;
      cell.report = RunVerifyPipeline(&context, version, Figure11Zone(), options);
      const SolverStats& s = cell.report.solver;
      if (s.queries > 0) {
        cell.hit_rate = static_cast<double>(s.cache_hits) / static_cast<double>(s.queries);
        cell.discharge_rate =
            static_cast<double>(s.presolver_discharges) / static_cast<double>(s.queries);
      }
      cells.push_back(std::move(cell));
    }

    // Soundness gate: both configurations must agree byte-for-byte.
    const VerificationReport& base = cells[0].report;
    for (size_t i = 1; i < cells.size(); ++i) {
      const VerificationReport& layered = cells[i].report;
      if (IssueDigest(base) != IssueDigest(layered) ||
          base.engine_paths != layered.engine_paths ||
          base.spec_paths != layered.spec_paths) {
        std::printf("%-8s SOUNDNESS VIOLATION: %s disagrees with direct\n",
                    EngineVersionName(version), kConfigs[i].name);
        sound = false;
      }
      // The acceptance bar: layering must strictly reduce Z3 checks.
      if (layered.solver.z3_checks >= base.solver.z3_checks) {
        std::printf("%-8s REGRESSION: %s did not reduce Z3 checks (%lld vs %lld)\n",
                    EngineVersionName(version), kConfigs[i].name,
                    static_cast<long long>(layered.solver.z3_checks),
                    static_cast<long long>(base.solver.z3_checks));
        sound = false;
      }
    }

    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const SolverStats& s = cell.report.solver;
      std::printf("%-8s %-15s %9lld %9lld %9.1f%% %9.1f%% %9.3f\n",
                  EngineVersionName(version), kConfigs[i].name,
                  static_cast<long long>(s.queries), static_cast<long long>(s.z3_checks),
                  100 * cell.hit_rate, 100 * cell.discharge_rate,
                  cell.report.total_seconds);
      json += StrCat(first_record ? "" : ",\n", "  {\"version\": \"",
                     EngineVersionName(version), "\", \"config\": \"", kConfigs[i].name,
                     "\", \"queries\": ", s.queries, ", \"z3_checks\": ", s.z3_checks,
                     ", \"cache_hits\": ", s.cache_hits,
                     ", \"cache_hit_rate\": ", cell.hit_rate,
                     ", \"presolver_discharges\": ", s.presolver_discharges,
                     ", \"presolver_discharge_rate\": ", cell.discharge_rate,
                     ", \"asserts_deduped\": ", s.asserts_deduped,
                     ", \"solve_seconds\": ", s.solve_seconds,
                     ", \"seconds\": ", cell.report.total_seconds,
                     ", \"verdicts_agree\": ", sound ? "true" : "false", "}");
      first_record = false;
    }
  }
  json += "\n]\n";

  std::FILE* out = std::fopen("BENCH_solver.json", "w");
  if (out != nullptr) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_solver.json\n");
  }

  std::printf("expectation: byte-identical verdicts and counterexamples across both\n");
  std::printf("configs; strictly fewer Z3 checks with the layers enabled.\n");
  return sound ? 0 : 1;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunAblation(); }
