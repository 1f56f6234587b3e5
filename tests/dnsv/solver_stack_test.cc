// Differential test for the solver-access layer (src/smt/backend.h): running
// the verification pipeline with the query cache + interval pre-solver
// enabled must be observably identical to running it with the layers off —
// same verdicts, same counterexamples (byte for byte), same path counts — on
// every engine version, while strictly reducing the number of checks that
// reach Z3. A separate shadow-validated run re-checks every cached and
// presolved verdict against Z3 and must report zero mismatches.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

// DNSV_SOLVER_FORCE collapses the on/off configurations into one, which
// voids the strict-reduction assertions (the byte-identity ones still hold).
bool EnvForced() { return std::getenv("DNSV_SOLVER_FORCE") != nullptr; }

// Everything observable about a run that must not depend on solver layering.
struct Observables {
  std::string text;
  int64_t engine_paths = 0;
  int64_t spec_paths = 0;

  static Observables From(const VerificationReport& report) {
    Observables obs;
    obs.engine_paths = report.engine_paths;
    obs.spec_paths = report.spec_paths;
    obs.text = StrCat("version=", EngineVersionName(report.version),
                      " verified=", report.verified ? 1 : 0, " aborted=",
                      report.aborted ? 1 : 0, " reason=", report.abort_reason, "\n");
    for (const VerificationIssue& issue : report.issues) {
      obs.text += issue.ToString();
    }
    return obs;
  }
};

VerificationReport RunWith(VerifyContext* context, EngineVersion version,
                           const SolverConfig& solver) {
  VerifyOptions options;
  options.use_summaries = true;
  options.solver = solver;
  return RunVerifyPipeline(context, version, Figure11Zone(), options);
}

TEST(SolverStackDifferential, LayersPreserveEveryObservableOnAllVersions) {
  // One cache shared across all six versions, exactly as production shares
  // the process-wide cache: later versions must benefit from earlier ones
  // without observing them.
  QueryCache cache;
  SolverConfig layered;
  layered.layering = SolverLayering::kCachePresolve;
  layered.cache = &cache;

  VerifyContext baseline_context;
  VerifyContext layered_context;
  for (EngineVersion version : AllEngineVersions()) {
    SCOPED_TRACE(EngineVersionName(version));
    VerificationReport baseline = RunWith(&baseline_context, version, SolverConfig{});
    VerificationReport with_layers = RunWith(&layered_context, version, layered);

    Observables a = Observables::From(baseline);
    Observables b = Observables::From(with_layers);
    EXPECT_EQ(a.text, b.text);  // verdicts + counterexamples, byte for byte
    EXPECT_EQ(a.engine_paths, b.engine_paths);
    EXPECT_EQ(a.spec_paths, b.spec_paths);

    if (!EnvForced()) {
      // The acceptance criterion: strictly fewer checks reach Z3.
      EXPECT_LT(with_layers.solver.z3_checks, baseline.solver.z3_checks);
      EXPECT_GT(with_layers.solver.cache_hits + with_layers.solver.presolver_discharges,
                0);
    }
  }
}

TEST(SolverStackDifferential, CacheSharesAcrossWorkersAndRuns) {
  // The full stack, on a version and zone where queries get past the
  // pre-solver, with the manual specs on: the spec exploration then hits
  // entries stored earlier in the same run, and a second identical run is
  // served entirely from the cache — zero new misses.
  QueryCache cache;
  VerifyOptions options;
  options.use_summaries = true;
  options.use_manual_specs = true;
  options.solver.layering = SolverLayering::kCachePresolve;
  options.solver.cache = &cache;
  VerifyContext context;
  RunVerifyPipeline(&context, EngineVersion::kV1, Figure11Zone(), options);
  QueryCache::Stats first = cache.stats();
  if (!EnvForced()) {
    EXPECT_GT(first.hits, 0);  // sharing within the first run
  }
  RunVerifyPipeline(&context, EngineVersion::kV1, Figure11Zone(), options);
  QueryCache::Stats second = cache.stats();
  if (!EnvForced()) {
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_GT(second.hits, first.hits);
  }
}

TEST(SolverStackDifferential, ShadowValidationReportsZeroMismatches) {
  QueryCache cache;
  SolverConfig shadow;
  shadow.layering = SolverLayering::kCachePresolve;
  shadow.cache = &cache;
  shadow.shadow_validate = true;  // every layered verdict re-checked on Z3

  VerifyContext context;
  int64_t total_shadow_checks = 0;
  for (EngineVersion version : AllEngineVersions()) {
    SCOPED_TRACE(EngineVersionName(version));
    VerificationReport report = RunWith(&context, version, shadow);
    EXPECT_EQ(report.solver.shadow_mismatches, 0);
    total_shadow_checks += report.solver.shadow_checks;
  }
  if (!EnvForced()) {
    EXPECT_GT(total_shadow_checks, 0);  // the mode actually validated something
  }
}

TEST(SolverStackDifferential, ReportPrintsSolverLayerLineOnlyWhenLayered) {
  VerifyContext context;
  QueryCache cache;
  SolverConfig layered;
  layered.layering = SolverLayering::kCachePresolve;
  layered.cache = &cache;
  VerificationReport baseline =
      RunWith(&context, EngineVersion::kGolden, SolverConfig{});
  VerificationReport with_layers = RunWith(&context, EngineVersion::kGolden, layered);
  if (!EnvForced()) {
    EXPECT_EQ(baseline.ToString().find("solver layer:"), std::string::npos);
    EXPECT_NE(with_layers.ToString().find("solver layer:"), std::string::npos);
  }
}

}  // namespace
}  // namespace dnsv
