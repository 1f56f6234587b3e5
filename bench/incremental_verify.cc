// Incremental re-verification benchmark (docs/INCREMENTAL.md): what the
// content-addressed artifact store buys across the Janus-style workflows.
//
//   cold    all six engine versions verified into a fresh store
//   warm    the same six versions again — every report must be replayed from
//           the store, byte-identical, with ZERO new Z3 checks
//   shadow  one version re-verified from scratch under StoreMode::kShadow,
//           which asserts byte-identity against the stored report
//   edit    cold-verify v3.0 into a fresh store, then verify dev against it
//           in the same VerifyContext: dev reuses v3.0's spec exploration
//           (same rrlookup cone), paying only explore.engine and compare
//
// The harness is an acceptance gate, not just a stopwatch: it exits nonzero
// if any warm run fails to replay, any normalized report drifts between cold
// and warm, a warm run issues a new Z3 check, the shadow run is not
// cross-checked, or the edit scenario loses its spec-exploration reuse. It
// writes BENCH_incremental.json (one record per version per phase, with the
// explore.engine / explore.spec / compare stage seconds) into the working
// directory and prints the EXPERIMENTS.md table. --smoke restricts to
// {golden, v2.0} for the CI quick pass and writes no file, so it cannot
// overwrite the full seven-version record.
//
// The zone is KitchenSinkZone: unlike the Fig.-11 zone (where the interval
// pre-solver discharges 100% of queries), it actually reaches Z3, so the
// warm-side "zero new Z3 checks" and qcache-persistence assertions are
// meaningful.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/dns/example_zones.h"
#include "src/dnsv/incremental.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/smt/z3_backend.h"
#include "src/store/store.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

struct Row {
  std::string version;
  std::string phase;
  bool replayed = false;
  bool shadow_checked = false;
  int64_t z3_delta = 0;
  int64_t qcache_loaded = 0;
  double seconds = 0;
  double explore_engine_s = 0;
  double explore_spec_s = 0;
  double compare_s = 0;
  bool spec_from_cache = false;
};

bool g_ok = true;

void Check(bool cond, const std::string& what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what.c_str());
    g_ok = false;
  }
}

VerifyOptions BaseOptions(ArtifactStore* store, StoreMode mode) {
  VerifyOptions options;
  options.use_summaries = true;
  options.prune = true;
  options.store = store;
  options.store_mode = mode;
  return options;
}

Row Run(VerifyContext* context, EngineVersion version, ArtifactStore* store,
        StoreMode mode, const char* phase, std::string* normalized) {
  const int64_t z3_before = Z3Backend::TotalChecks();
  VerificationReport report =
      RunVerifyPipeline(context, version, KitchenSinkZone(), BaseOptions(store, mode));
  Row row;
  row.version = EngineVersionName(version);
  row.phase = phase;
  row.replayed = report.incremental.replayed;
  row.shadow_checked = report.incremental.shadow_checked;
  row.z3_delta = Z3Backend::TotalChecks() - z3_before;
  row.qcache_loaded = report.incremental.qcache_entries_loaded;
  row.seconds = report.total_seconds;
  for (const StageStats& stage : report.stages) {
    if (stage.stage == "explore.engine") row.explore_engine_s = stage.seconds;
    if (stage.stage == "compare") row.compare_s = stage.seconds;
    if (stage.stage == "explore.spec") {
      row.explore_spec_s = stage.seconds;
      row.spec_from_cache = stage.from_cache;
    }
  }
  Check(!report.aborted, StrCat(row.version, " ", phase, ": pipeline aborted: ",
                                report.abort_reason));
  if (normalized != nullptr) {
    *normalized = NormalizedReportText(report);
  }
  return row;
}

void PrintRow(const Row& row) {
  std::printf("%-8s %-7s replay=%d %9lld z3  qload %4lld  %7.3fs%s\n", row.version.c_str(),
              row.phase.c_str(), row.replayed ? 1 : 0, static_cast<long long>(row.z3_delta),
              static_cast<long long>(row.qcache_loaded), row.seconds,
              row.spec_from_cache ? "  (spec cached)" : "");
}

std::string JsonRecord(const Row& row) {
  return StrCat("  {\"version\": \"", row.version, "\", \"phase\": \"", row.phase,
                "\", \"replayed\": ", row.replayed ? "true" : "false",
                ", \"shadow_checked\": ", row.shadow_checked ? "true" : "false",
                ", \"z3_checks\": ", row.z3_delta,
                ", \"qcache_entries_loaded\": ", row.qcache_loaded,
                ", \"seconds\": ", row.seconds,
                ", \"explore_engine_s\": ", row.explore_engine_s,
                ", \"explore_spec_s\": ", row.explore_spec_s,
                ", \"compare_s\": ", row.compare_s,
                ", \"spec_from_cache\": ", row.spec_from_cache ? "true" : "false", "}");
}

int RunBench(bool smoke) {
  // The harness owns its configuration: environment overrides would collapse
  // the cold/warm/shadow distinction.
  unsetenv("DNSV_SOLVER_FORCE");
  unsetenv("DNSV_STORE_FORCE");
  unsetenv("DNSV_STORE_DIR");

  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("dnsv-bench-incremental-" + std::to_string(::getpid()));
  fs::remove_all(root);
  ArtifactStore store((root / "main").string());

  std::vector<EngineVersion> versions;
  if (smoke) {
    versions = {EngineVersion::kGolden, EngineVersion::kV2};
  } else {
    for (EngineVersion version : AllEngineVersions()) versions.push_back(version);
  }

  std::printf("Incremental verification: cold vs. warm over the artifact store\n");
  std::printf("zone: kitchen-sink; store: %s\n\n", store.root().c_str());

  std::vector<Row> rows;
  std::vector<std::string> cold_text(versions.size());

  // Phase 1: cold. Reports and solver verdicts are written back; each
  // version loads the verdicts the versions before it flushed.
  for (size_t i = 0; i < versions.size(); ++i) {
    VerifyContext context;
    QueryCache::Global()->Clear();
    Row row = Run(&context, versions[i], &store, StoreMode::kIncremental, "cold",
                  &cold_text[i]);
    Check(!row.replayed, StrCat(row.version, " cold: unexpectedly replayed"));
    PrintRow(row);
    rows.push_back(std::move(row));
  }

  // Phase 2: warm. Fresh contexts and a cleared global query cache make the
  // store the only channel: each report must be served verbatim with no new
  // Z3 checks.
  std::printf("\n");
  for (size_t i = 0; i < versions.size(); ++i) {
    VerifyContext context;
    QueryCache::Global()->Clear();
    std::string warm_text;
    Row row = Run(&context, versions[i], &store, StoreMode::kIncremental, "warm",
                  &warm_text);
    Check(row.replayed, StrCat(row.version, " warm: not replayed from the store"));
    Check(row.z3_delta == 0,
          StrCat(row.version, " warm: issued ", row.z3_delta, " new Z3 checks"));
    Check(warm_text == cold_text[i],
          StrCat(row.version, " warm: normalized report drifted from cold"));
    PrintRow(row);
    rows.push_back(std::move(row));
  }

  // Phase 3: shadow. Recompute one version from scratch; the pipeline itself
  // asserts byte-identity against the stored report (DNSV_CHECK aborts on
  // drift), so surviving the run is the check.
  std::printf("\n");
  {
    VerifyContext context;
    QueryCache::Global()->Clear();
    Row row = Run(&context, versions[0], &store, StoreMode::kShadow, "shadow", nullptr);
    Check(row.shadow_checked,
          StrCat(row.version, " shadow: stored report was not cross-checked"));
    Check(!row.replayed, StrCat(row.version, " shadow: must recompute, not replay"));
    PrintRow(row);
    rows.push_back(std::move(row));
  }

  // Phase 4: edit scenario. Verify v3.0 cold into a fresh store, then verify
  // dev against it. dev's sources differ from v3.0 in a few functions, so its
  // report cannot replay. Both runs share one VerifyContext, as a
  // developer's process would: dev's rrlookup cone is v3.0's, so its spec
  // exploration is reused and the new version pays only explore.engine and
  // compare.
  std::printf("\n");
  {
    ArtifactStore edit_store((root / "edit").string());
    VerifyContext context;
    QueryCache::Global()->Clear();
    Row base = Run(&context, EngineVersion::kV3, &edit_store, StoreMode::kIncremental, "edit0",
                   nullptr);
    PrintRow(base);
    rows.push_back(std::move(base));

    QueryCache::Global()->Clear();
    Row edited = Run(&context, EngineVersion::kDev, &edit_store, StoreMode::kIncremental,
                     "edit1", nullptr);
    Check(!edited.replayed, "edit: dev after v3.0 must not replay v3.0's report");
    Check(edited.spec_from_cache, "edit: dev did not reuse v3.0's spec exploration");
    PrintRow(edited);
    rows.push_back(std::move(edited));
  }

  // The EXPERIMENTS.md table: each version's cold row beside its warm one.
  std::printf("\n| version | cold z3 | cold verdicts loaded | cold wall | warm | warm z3 | "
              "warm wall |\n|---|---|---|---|---|---|---|\n");
  for (size_t i = 0; i < versions.size(); ++i) {
    const Row& cold = rows[i];
    const Row& warm = rows[versions.size() + i];
    std::printf("| %s | %lld | %lld | %.2fs | %s | %lld | %.3fs |\n", cold.version.c_str(),
                static_cast<long long>(cold.z3_delta), static_cast<long long>(cold.qcache_loaded),
                cold.seconds, warm.replayed ? "replayed" : "recomputed",
                static_cast<long long>(warm.z3_delta), warm.seconds);
  }

  if (!smoke) {
    std::string json = "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      json += StrCat(i == 0 ? "" : ",\n", JsonRecord(rows[i]));
    }
    json += "\n]\n";
    std::FILE* out = std::fopen("BENCH_incremental.json", "w");
    if (out != nullptr) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
      std::printf("\nwrote BENCH_incremental.json\n");
    }
  }

  fs::remove_all(root);
  std::printf("%s\n", g_ok ? "incremental bench OK" : "incremental bench FAILED");
  return g_ok ? 0 : 1;
}

}  // namespace
}  // namespace dnsv

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return dnsv::RunBench(smoke);
}
