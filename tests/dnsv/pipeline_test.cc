// Pipeline-specific tests: stage caching, parallel-vs-serial determinism,
// per-stage reporting, and the process-wide compiled-engine cache.
#include "src/dnsv/pipeline.h"

#include <gtest/gtest.h>

#include <iterator>
#include <thread>

#include "src/dns/example_zones.h"
#include "src/dnsv/incremental.h"
#include "src/engine/engine.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

ZoneConfig ZoneA() {
  return ParseZoneText(R"(
$ORIGIN pa.test.
@   SOA ns 1
@   NS  ns.pa.test.
ns  A   192.0.2.1
www A   192.0.2.2
)").value();
}

ZoneConfig ZoneB() {
  return ParseZoneText(R"(
$ORIGIN pb.test.
@   SOA ns 1
@   NS  ns.pb.test.
ns  A   192.0.2.3
*   TXT 7
)").value();
}

// A zone on which v1.0 reports several confirmed issues — used to compare
// parallel and serial exploration on a non-trivial issue list.
ZoneConfig BuggyZone() {
  return ParseZoneText(R"(
$ORIGIN pc.test.
@   SOA ns 1
@   NS  ns.pc.test.
ns  A   192.0.2.1
www A   192.0.2.2
*   TXT 7
)").value();
}

// The release gate's zones: the two Table-2 corpus zones
// (bench/table2_bug_finding.cc) and the kitchen-sink zone.
std::vector<ZoneConfig> GateZones() {
  return {ParseZoneText(R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
shop     MX   10 ns1
shop     A    198.51.100.30
*        TXT  99
*        MX   20 ns1
deep.box A    198.51.100.40
)").value(),
          ParseZoneText(R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
child    NS   ns1.child.corp.test.
child    NS   ns2.child.corp.test.
ns1.child A   198.51.100.51
ns2.child A   198.51.100.52
)").value(),
          KitchenSinkZone()};
}

// The release gate's options (perfbench's verify-release, minus the store).
// The full solver stack puts the compare stage's pair skip in play too.
VerifyOptions GateOptions() {
  VerifyOptions options;
  options.use_summaries = true;
  options.prune = true;
  options.solver.layering = SolverLayering::kCachePresolve;
  return options;
}

TEST(PipelineCache, TwoZonesOneVersionCompileOnce) {
  VerifyContext context;
  int64_t compiles_before = CompiledEngine::num_compiles();
  VerificationReport a = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  VerificationReport b = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneB());
  EXPECT_TRUE(a.verified) << a.ToString();
  EXPECT_TRUE(b.verified) << b.ToString();
  EXPECT_EQ(CompiledEngine::num_compiles() - compiles_before, 1)
      << "two zones over one version must compile the engine exactly once";
  const VerifyContext::CacheStats& stats = context.cache_stats();
  EXPECT_EQ(stats.engine_compiles, 1);
  // Later stages re-fetch the engine from the cache (lift needs the type
  // table), so hits exceed one-per-run; what matters is no recompile.
  EXPECT_GE(stats.engine_cache_hits, 1);
  EXPECT_EQ(stats.zone_lifts, 2);  // distinct zones: no lift reuse
}

TEST(PipelineCache, AllVersionsOneZoneCompileOncePerVersion) {
  VerifyContext context;
  int64_t compiles_before = CompiledEngine::num_compiles();
  int num_versions = 0;
  for (EngineVersion version : AllEngineVersions()) {
    VerifyOptions options;
    options.max_issues = 1;  // verdict only: keep the sweep fast
    VerificationReport report = RunVerifyPipeline(&context, version, ZoneA(), options);
    EXPECT_FALSE(report.aborted) << report.abort_reason;
    ++num_versions;
  }
  EXPECT_EQ(num_versions, 7);
  EXPECT_EQ(CompiledEngine::num_compiles() - compiles_before, 7)
      << "verifying all 7 versions over one zone must perform exactly 7 compilations";
  EXPECT_EQ(context.cache_stats().engine_compiles, 7);
}

TEST(PipelineCache, RepeatedRunHitsBothCaches) {
  VerifyContext context;
  RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  VerificationReport second = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  EXPECT_TRUE(second.verified) << second.ToString();
  const VerifyContext::CacheStats& stats = context.cache_stats();
  EXPECT_EQ(stats.engine_compiles, 1);
  EXPECT_EQ(stats.zone_lifts, 1);
  EXPECT_GE(stats.zone_cache_hits, 1);
  // The cached run must say so in its stage breakdown.
  bool compile_cached = false;
  bool lift_cached = false;
  for (const StageStats& stage : second.stages) {
    if (stage.stage == "compile") compile_cached = stage.from_cache;
    if (stage.stage == "lift") lift_cached = stage.from_cache;
  }
  EXPECT_TRUE(compile_cached) << second.ToString();
  EXPECT_TRUE(lift_cached) << second.ToString();
}

TEST(PipelineCache, ProcessWideGetCachedReturnsSameEngine) {
  std::shared_ptr<const CompiledEngine> first = CompiledEngine::GetCached(EngineVersion::kV2);
  int64_t compiles_after_first = CompiledEngine::num_compiles();
  std::shared_ptr<const CompiledEngine> second = CompiledEngine::GetCached(EngineVersion::kV2);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(CompiledEngine::num_compiles(), compiles_after_first);
}

// FNV-1a 64 of NormalizedReportText for every release-gate pair, in
// AllEngineVersions() x GateZones() order. These pin the verifier's output:
// a refactor or a deleted option must leave every one of them unchanged.
constexpr const char* kGateReportDigests[] = {
    "968b848a2ce57bc5", "f4974698d7a1ee5d", "6daf2a9a7f14ada2",  // v1.0
    "835ed0dca902d5bf", "0fc9025b331c182d", "17a771540d732692",  // v2.0
    "6b231c25a3973af6", "392d171457f57752", "1c437ec64cf0d2a1",  // v3.0
    "ad38cc4d81981140", "3690a24260058b44", "7d95b429b89126e7",  // dev
    "19730d981cda30bb", "f0abc62a26ba9f08", "cf8ba45d9a58c3ef",  // golden
    "c2634e46d11babf6", "de6e441168d88129", "0d4496be61f8d6b5",  // v4.0
    "e6cf5ad1648108f5", "ccd352e434f28c37", "0c56bcb2b3db319e",  // v5.0
};

// Spec reuse across versions: over the release gate, one context explores
// the spec once per distinct (spec cone, zone) — rrlookup has four distinct
// pruned cones across the seven versions (v1.0; v2.0/v3.0/dev/golden; v4.0;
// v5.0) — and every report is the one a fresh context produces, with the
// pinned digest.
TEST(PipelineSpecCache, ReleaseGateMatchesFreshContexts) {
  const VerifyOptions options = GateOptions();
  const std::vector<ZoneConfig> zones = GateZones();
  ASSERT_EQ(AllEngineVersions().size() * zones.size(), std::size(kGateReportDigests));
  const char* const* expected_digest = kGateReportDigests;
  VerifyContext shared;
  for (EngineVersion version : AllEngineVersions()) {
    for (const ZoneConfig& zone : zones) {
      VerifyContext::CacheStats before = shared.cache_stats();
      VerificationReport reused = RunVerifyPipeline(&shared, version, zone, options);
      VerifyContext fresh;
      VerificationReport alone = RunVerifyPipeline(&fresh, version, zone, options);
      ASSERT_FALSE(reused.aborted) << reused.abort_reason;
      EXPECT_EQ(NormalizedReportText(reused), NormalizedReportText(alone))
          << EngineVersionName(version);
      EXPECT_EQ(HexU64(Fnv1a64(NormalizedReportText(reused))), *expected_digest++)
          << EngineVersionName(version) << " zone " << zone.origin.ToString();
      const StageStats* spec = reused.FindStage("explore.spec");
      ASSERT_NE(spec, nullptr);
      bool hit = shared.cache_stats().spec_cache_hits > before.spec_cache_hits;
      EXPECT_EQ(spec->from_cache, hit);
      if (hit) {
        // A cached exploration costs this run nothing and adds no solver work.
        EXPECT_EQ(spec->seconds, 0.0);
        EXPECT_EQ(spec->solver.queries, 0);
        EXPECT_FALSE(reused.explored_in_parallel);
      }
    }
  }
  VerifyContext::CacheStats stats = shared.cache_stats();
  EXPECT_EQ(stats.spec_explorations, 12);
  EXPECT_EQ(stats.spec_cache_hits, 9);
}

TEST(PipelineSpecCache, OptionOrZoneChangeMisses) {
  VerifyContext context;
  VerifyOptions options;
  RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA(), options);
  EXPECT_EQ(context.cache_stats().spec_explorations, 1);
  VerifyOptions deeper = options;
  deeper.extra_qname_labels = 2;
  VerificationReport deep = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA(), deeper);
  EXPECT_FALSE(deep.FindStage("explore.spec")->from_cache);
  VerificationReport other = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneB(), options);
  EXPECT_FALSE(other.FindStage("explore.spec")->from_cache);
  EXPECT_EQ(context.cache_stats().spec_explorations, 3);
  EXPECT_EQ(context.cache_stats().spec_cache_hits, 0);
  // The unchanged (zone, options) pair hits, on another version too: v3.0
  // shares golden's spec cone.
  VerificationReport again = RunVerifyPipeline(&context, EngineVersion::kV3, ZoneA(), options);
  EXPECT_TRUE(again.FindStage("explore.spec")->from_cache);
  EXPECT_EQ(context.cache_stats().spec_cache_hits, 1);
}

// Two threads that need the same spec exploration at once: whichever stores
// it first wins, the other uses it (or explores too and keeps the winner's),
// and both reports are what a fresh context gives.
TEST(PipelineSpecCache, ConcurrentRunsShareOneEntry) {
  VerifyContext context;
  VerificationReport v3;
  VerificationReport golden;
  std::thread other([&] { v3 = RunVerifyPipeline(&context, EngineVersion::kV3, ZoneA()); });
  golden = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  other.join();
  VerifyContext::CacheStats stats = context.cache_stats();
  EXPECT_EQ(stats.spec_explorations, 1);
  EXPECT_EQ(stats.spec_cache_hits, 1);
  VerifyContext fresh_v3;
  VerifyContext fresh_golden;
  EXPECT_EQ(NormalizedReportText(v3),
            NormalizedReportText(RunVerifyPipeline(&fresh_v3, EngineVersion::kV3, ZoneA())));
  EXPECT_EQ(NormalizedReportText(golden), NormalizedReportText(RunVerifyPipeline(
                                              &fresh_golden, EngineVersion::kGolden, ZoneA())));
}

// A spec-cache fill whose spec side explores on its own thread, then two
// runs on two threads that both hit the entry and import its shared nodes at
// once (reference counts are atomic; no cached node is ever written). The
// TSan pass of ci/check.sh runs this test.
TEST(PipelineSpecCache, ParallelFillThenConcurrentHits) {
  VerifyContext context;
  VerificationReport fill = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  ASSERT_FALSE(fill.aborted) << fill.abort_reason;
  EXPECT_TRUE(fill.explored_in_parallel);
  VerificationReport v3;
  VerificationReport golden;
  std::thread other([&] { v3 = RunVerifyPipeline(&context, EngineVersion::kV3, ZoneA()); });
  golden = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  other.join();
  VerifyContext::CacheStats stats = context.cache_stats();
  EXPECT_EQ(stats.spec_explorations, 1);
  EXPECT_EQ(stats.spec_cache_hits, 2);
  EXPECT_TRUE(v3.FindStage("explore.spec")->from_cache);
  EXPECT_TRUE(golden.FindStage("explore.spec")->from_cache);
  EXPECT_EQ(NormalizedReportText(golden), NormalizedReportText(fill));
  VerifyContext fresh;
  EXPECT_EQ(NormalizedReportText(v3),
            NormalizedReportText(RunVerifyPipeline(&fresh, EngineVersion::kV3, ZoneA())));
}

// The acceptance criterion on determinism: with isolated per-worker arenas
// and a post-join fixed-order merge, parallel exploration must yield a
// byte-identical issue list to serial exploration. Each run gets its own
// context: a shared one would serve the second run's spec side from the
// spec cache, and nothing would explore in parallel.
TEST(PipelineParallel, IssueListsByteIdenticalToSerial) {
  VerifyContext serial_context;
  VerifyContext parallel_context;
  VerifyOptions serial;
  serial.parallel_explore = false;
  VerifyOptions parallel;
  parallel.parallel_explore = true;
  VerificationReport serial_report =
      RunVerifyPipeline(&serial_context, EngineVersion::kV1, BuggyZone(), serial);
  VerificationReport parallel_report =
      RunVerifyPipeline(&parallel_context, EngineVersion::kV1, BuggyZone(), parallel);
  ASSERT_FALSE(serial_report.aborted) << serial_report.abort_reason;
  ASSERT_FALSE(serial_report.verified);
  EXPECT_FALSE(serial_report.explored_in_parallel);
  EXPECT_TRUE(parallel_report.explored_in_parallel);
  ASSERT_EQ(serial_report.issues.size(), parallel_report.issues.size());
  for (size_t i = 0; i < serial_report.issues.size(); ++i) {
    EXPECT_EQ(serial_report.issues[i].ToString(), parallel_report.issues[i].ToString()) << i;
  }
  EXPECT_EQ(serial_report.engine_paths, parallel_report.engine_paths);
  EXPECT_EQ(serial_report.spec_paths, parallel_report.spec_paths);
}

TEST(PipelineParallel, CleanVerdictMatchesSerial) {
  VerifyContext serial_context;
  VerifyContext parallel_context;
  VerifyOptions serial;
  serial.parallel_explore = false;
  serial.use_summaries = true;
  serial.use_manual_specs = true;
  VerifyOptions parallel = serial;
  parallel.parallel_explore = true;
  VerificationReport serial_report =
      RunVerifyPipeline(&serial_context, EngineVersion::kGolden, ZoneB(), serial);
  VerificationReport parallel_report =
      RunVerifyPipeline(&parallel_context, EngineVersion::kGolden, ZoneB(), parallel);
  EXPECT_TRUE(parallel_report.explored_in_parallel);
  EXPECT_TRUE(serial_report.verified) << serial_report.ToString();
  EXPECT_TRUE(parallel_report.verified) << parallel_report.ToString();
  EXPECT_EQ(serial_report.engine_paths, parallel_report.engine_paths);
  EXPECT_EQ(serial_report.spec_paths, parallel_report.spec_paths);
  EXPECT_EQ(serial_report.manual_specs_verified, parallel_report.manual_specs_verified);
  EXPECT_EQ(serial_report.summaries_computed, parallel_report.summaries_computed);
}

TEST(PipelineStages, ReportCarriesEveryStage) {
  VerifyContext context;
  VerificationReport report = RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA());
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  std::vector<std::string> names;
  for (const StageStats& stage : report.stages) {
    names.push_back(stage.stage);
    EXPECT_GE(stage.seconds, 0.0) << stage.stage;
    EXPECT_GE(stage.solver.solve_seconds, 0.0) << stage.stage;
    EXPECT_LE(stage.solver.solve_seconds, stage.seconds + 1e-9) << stage.stage;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"compile", "lift", "explore.engine",
                                             "explore.spec", "compare", "confirm"}));
  // The compare stage is where solver checks happen on a clean zone.
  int64_t stage_checks = 0;
  for (const StageStats& stage : report.stages) {
    stage_checks += stage.solver.z3_checks;
  }
  EXPECT_EQ(stage_checks, report.solver.z3_checks)
      << "per-stage solver checks must add up to the report total";
}

TEST(PipelineStages, SafetyOnlySkipsSpecExploration) {
  VerifyContext context;
  VerifyOptions options;
  options.safety_only = true;
  VerificationReport report =
      RunVerifyPipeline(&context, EngineVersion::kGolden, ZoneA(), options);
  EXPECT_TRUE(report.verified) << report.ToString();
  for (const StageStats& stage : report.stages) {
    EXPECT_NE(stage.stage, "explore.spec") << "safety-only must not explore the spec";
  }
}

// Golden test for the new per-stage report rendering: handcrafted report, so
// the exact string is stable across machines.
TEST(PipelineStages, ReportToStringGolden) {
  VerificationReport report;
  report.version = EngineVersion::kGolden;
  report.verified = true;
  report.engine_paths = 12;
  report.spec_paths = 9;
  report.solver.z3_checks = 34;
  report.solver.solve_seconds = 0.5;
  report.total_seconds = 1.5;
  report.explored_in_parallel = true;
  report.pruned = true;
  StageStats compile;
  compile.stage = "compile";
  compile.seconds = 0.25;
  compile.from_cache = true;
  StageStats prune;
  prune.stage = "prune";
  prune.seconds = 0.125;
  prune.panics_discharged = 5;
  prune.paths_pruned = 7;
  StageStats explore;
  explore.stage = "explore.engine";
  explore.seconds = 1;
  explore.solver.z3_checks = 34;
  explore.solver.solve_seconds = 0.5;
  report.stages = {compile, prune, explore};
  // Stages with zero solver checks still print "0 solver checks": a zero and
  // a missing entry must stay distinguishable in report diffs.
  EXPECT_EQ(report.ToString(),
            "=== DNS-V report: engine golden ===\n"
            "VERIFIED: safety and functional correctness hold on this zone\n"
            "  engine paths: 12, spec paths: 9, solver checks: 34 (0.5s), total 1.5s\n"
            "  prune: 5 panics discharged, 7 paths pruned\n"
            "  stages (parallel exploration):\n"
            "    compile: 0.25s (cached), 0 solver checks (0s)\n"
            "    prune: 0.125s, 0 solver checks (0s), 5 panics discharged, 7 paths pruned\n"
            "    explore.engine: 1s, 34 solver checks (0.5s)\n");
}

TEST(PipelineAbort, InvalidZoneAbortsInLiftStage) {
  VerifyContext context;
  ZoneConfig no_soa;
  no_soa.origin = DnsName::Parse("bad.test").value();
  VerificationReport report = RunVerifyPipeline(&context, EngineVersion::kGolden, no_soa);
  EXPECT_TRUE(report.aborted);
  EXPECT_NE(report.abort_reason.find("SOA"), std::string::npos);
  // Failed lifts must not be cached: the compile stage ran, the lift did not
  // populate the zone cache.
  EXPECT_EQ(context.cache_stats().zone_cache_hits, 0);
}

// Sibling owners h00000..h00057 exhaust the label codes of the lift's
// interner: the run reports an abort instead of killing the process.
TEST(PipelineAbort, ZoneThatExhaustsLabelCodesAbortsInLiftStage) {
  std::string text = "$ORIGIN ex.test.\n@ SOA ns 1\n@ NS ns.ex.test.\n";
  for (int i = 0; i <= 57; ++i) {
    text += StrCat("h", std::string(4 - std::to_string(i).size(), '0'), i, " A 192.0.2.1\n");
  }
  VerifyContext context;
  VerificationReport report =
      RunVerifyPipeline(&context, EngineVersion::kGolden, ParseZoneText(text).value());
  EXPECT_TRUE(report.aborted);
  EXPECT_NE(report.abort_reason.find("label code space exhausted"), std::string::npos)
      << report.abort_reason;
}

}  // namespace
}  // namespace dnsv
