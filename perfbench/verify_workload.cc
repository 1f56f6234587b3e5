// verify-release: the developer's release gate. One process, a fresh
// VerifyContext and a fresh private ArtifactStore; a cold pass verifies all
// seven engine versions in release order over three zones, then warm passes
// replay the same 21 (version, zone) pairs from the store until the run's
// time is used.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "perfbench/workloads.h"
#include "src/dns/example_zones.h"
#include "src/dnsv/incremental.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/z3_backend.h"
#include "src/store/store.h"
#include "src/support/strings.h"

namespace dnsv::perfbench {
namespace {

constexpr char kVerifyWorkload[] = "verify-release";
constexpr int kTracePairs = 42;  // the cold pass and the first warm pass
// Warm passes fill what the cold pass left of the run's seconds, and at
// least this long.
constexpr double kMinWarmSeconds = 2;

// The two Table-2 corpus zones (bench/table2_bug_finding.cc) plus the
// kitchen-sink zone, which is the one whose verification reaches Z3.
const char kWildcardZone[] = R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
shop     MX   10 ns1
shop     A    198.51.100.30
*        TXT  99
*        MX   20 ns1
deep.box A    198.51.100.40
)";

const char kDelegationZone[] = R"(
$ORIGIN corp.test.
@        SOA  ns1 7
@        NS   ns1.corp.test.
ns1      A    198.51.100.1
child    NS   ns1.child.corp.test.
child    NS   ns2.child.corp.test.
ns1.child A   198.51.100.51
ns2.child A   198.51.100.52
)";

struct NamedZone {
  const char* name;
  ZoneConfig zone;
};

std::vector<NamedZone> GateZones() {
  return {{"wildcard", ParseZoneText(kWildcardZone).value()},
          {"delegation", ParseZoneText(kDelegationZone).value()},
          {"kitchen-sink", KitchenSinkZone()}};
}

// The paper's Table 2, by version, as bench/table2_bug_finding.cc lists it:
// the classifications verification must raise over the three zones, each
// one confirmed by concrete re-execution. Each inner list is satisfied by
// any one of its classes ("Wrong Answer/rcode"). No classes means the
// version verifies clean on every zone.
using ClassGroups = std::vector<std::vector<std::string>>;
ClassGroups ExpectedClasses(EngineVersion version) {
  switch (version) {
    case EngineVersion::kV1:
      return {{"Wrong Flag"}, {"Wrong Authority"}, {"Wrong Answer"}};
    case EngineVersion::kV2:
      return {{"Wrong Additional"}, {"Wrong Answer", "Wrong rcode"}};
    case EngineVersion::kV3:
      return {{"Wrong Answer", "Wrong rcode"}};
    case EngineVersion::kDev:
      return {{"Wrong Answer", "Wrong rcode"}, {"Runtime Error"}};
    case EngineVersion::kGolden:
    case EngineVersion::kV4:
    case EngineVersion::kV5:
      return {};
  }
  return {};
}

// The first expected group none of `raised` satisfies, or "" when all are.
std::string MissingClass(const ClassGroups& expected, const std::set<std::string>& raised) {
  for (const std::vector<std::string>& group : expected) {
    bool met = false;
    for (const std::string& cls : group) {
      met = met || raised.count(cls) > 0;
    }
    if (!met) {
      return group.front();
    }
  }
  return "";
}

VerifyOptions GateOptions(ArtifactStore* store) {
  VerifyOptions options;
  options.use_summaries = true;
  options.prune = true;
  options.store = store;
  return options;
}

struct StageTotals {
  std::map<std::string, double> seconds;
  double solve_s = 0;
  int64_t solver_queries = 0;
  int64_t solver_cache_hits = 0;
  int64_t presolve_discharges = 0;
  int64_t panics_discharged = 0;
  int64_t paths_pruned = 0;
  int64_t engine_paths = 0;
  int64_t spec_paths = 0;

  void Add(const VerificationReport& report) {
    for (const StageStats& stage : report.stages) {
      seconds[stage.stage] += stage.seconds;
      solve_s += stage.solver.solve_seconds;
      solver_queries += stage.solver.queries;
      solver_cache_hits += stage.solver.cache_hits;
      presolve_discharges += stage.solver.presolver_discharges;
      if (stage.stage == "prune" && !stage.from_cache) {
        panics_discharged += stage.panics_discharged;
        paths_pruned += stage.paths_pruned;
      }
    }
    engine_paths += report.engine_paths;
    spec_paths += report.spec_paths;
  }
};

// One pair's root span with its stages laid out from the stage durations
// the pipeline recorded; the two explore workers share a start when they
// ran concurrently.
void AddPairSpans(SpanRecorder* spans, uint64_t request, uint64_t start_ns, uint64_t end_ns,
                  const VerificationReport& report) {
  uint32_t root =
      spans->Add(spans->NameId("verify.pair"), start_ns, end_ns, SpanRecorder::kNoParent, request);
  uint64_t cursor = start_ns;
  uint64_t explore_start = 0;
  for (const StageStats& stage : report.stages) {
    uint64_t duration = static_cast<uint64_t>(stage.seconds * 1e9);
    bool spec = stage.stage == "explore.spec";
    uint64_t begin = spec && report.explored_in_parallel ? explore_start : cursor;
    if (stage.stage == "explore.engine") {
      explore_start = cursor;
    }
    spans->Add(spans->NameId(stage.stage), begin, begin + duration, root, request,
               spec && report.explored_in_parallel ? 1 : 0);
    cursor = std::max(cursor, begin + duration);
  }
}

}  // namespace

bool IsVerifyWorkload(const std::string& name) { return name == kVerifyWorkload; }

void SetupVerify(const RunOptions& options) {
  std::filesystem::path root =
      std::filesystem::path(options.work_dir) / ("setup-" + std::to_string(::getpid()));
  {
    ArtifactStore store(root.string());
    VerifyContext context;
    std::vector<NamedZone> zones = GateZones();
  }
  std::filesystem::remove_all(root);
}

void RunVerify(const RunOptions& options, RunOutput* out) {
  std::filesystem::path root =
      std::filesystem::path(options.work_dir) / ("store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::vector<NamedZone> zones = GateZones();
  std::vector<EngineVersion> versions = AllEngineVersions();
  // The gate's inputs are fixed; their canonical zone hashes name them so
  // runs are comparable.
  for (const NamedZone& z : zones) {
    Result<std::string> hash = CanonicalZoneHashHex(z.zone);
    if (!out->input_hash.empty()) {
      out->input_hash += ':';
    }
    out->input_hash += hash.ok() ? hash.value().substr(0, 8) : "invalid";
  }

  SpanRecorder spans;
  StageTotals cold_totals;
  int64_t layers_total = 0;
  int64_t layers_reused = 0;
  std::vector<std::string> cold_text;
  int64_t cold_checks = 0;
  double cold_s = 0;
  {
    ArtifactStore store(root.string());
    VerifyContext context;
    const VerifyOptions gate = GateOptions(&store);

    // Cold pass.
    uint64_t request = 0;
    const int64_t checks_before = Z3Backend::TotalChecks();
    const uint64_t cold_start = NowNs();
    for (EngineVersion version : versions) {
      const ClassGroups expected = ExpectedClasses(version);
      std::set<std::string> raised;
      for (const NamedZone& z : zones) {
        uint64_t t0 = NowNs();
        VerificationReport report = RunVerifyPipeline(&context, version, z.zone, gate);
        uint64_t t1 = NowNs();
        AddPairSpans(&spans, request++, t0, t1, report);
        ++out->attempted;
        cold_totals.Add(report);
        if (version != versions.front()) {
          layers_total += report.incremental.layers_total;
          layers_reused += report.incremental.layers_reused;
        }
        cold_text.push_back(NormalizedReportText(report));
        const std::string pair = StrCat(EngineVersionName(version), " x ", z.name);
        bool ok = !report.aborted;
        if (report.aborted) {
          out->Problem(pair + " aborted: " + report.abort_reason);
        }
        if (expected.empty() && !report.verified) {
          out->Problem(StrCat(pair, " should verify clean but raised ", report.issues.size(),
                              " issues"));
          ok = false;
        }
        for (const VerificationIssue& issue : report.issues) {
          if (!issue.confirmed) {
            out->Problem(pair + ": unconfirmed issue " + issue.description);
            ok = false;
          }
          for (const std::string& cls : SplitString(issue.classification, '/')) {
            raised.insert(cls);
          }
        }
        out->failed += ok ? 0 : 1;
        std::fprintf(stderr, "cold  %-7s %-12s %6.3f s  %zu issues\n", EngineVersionName(version),
                     z.name, static_cast<double>(t1 - t0) / 1e9, report.issues.size());
      }
      const std::string missing = MissingClass(expected, raised);
      if (!missing.empty()) {
        out->Problem(StrCat(EngineVersionName(version), " did not raise its Table-2 class ",
                            missing));
        ++out->failed;
      }
    }
    cold_s = static_cast<double>(NowNs() - cold_start) / 1e9;
    cold_checks = Z3Backend::TotalChecks() - checks_before;
    const int64_t store_bytes = store.GetStats().total_bytes;

    // Warm passes: every pair must replay from the store, with zero Z3
    // checks and the cold pass's report text.
    std::vector<double> pair_us;
    std::vector<double> pass_s;
    int64_t replayed = 0;
    int64_t warm_pairs = 0;
    const int64_t warm_checks_before = Z3Backend::TotalChecks();
    const uint64_t warm_start = NowNs();
    do {
      uint64_t pass_start = NowNs();
      size_t index = 0;
      for (EngineVersion version : versions) {
        for (const NamedZone& z : zones) {
          uint64_t t0 = NowNs();
          VerificationReport report = RunVerifyPipeline(&context, version, z.zone, gate);
          uint64_t t1 = NowNs();
          if (request < kTracePairs) {
            AddPairSpans(&spans, request++, t0, t1, report);
          }
          pair_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
          ++out->attempted;
          ++warm_pairs;
          replayed += report.incremental.replayed ? 1 : 0;
          if (!report.incremental.replayed || NormalizedReportText(report) != cold_text[index]) {
            out->Problem(StrCat(EngineVersionName(version), " x ", z.name,
                                ": warm report drifted from the cold one"));
            ++out->failed;
          }
          ++index;
        }
      }
      pass_s.push_back(static_cast<double>(NowNs() - pass_start) / 1e9);
    } while (static_cast<double>(NowNs() - warm_start) / 1e9 <
             std::max(kMinWarmSeconds, options.seconds - cold_s));
    const int64_t warm_checks = Z3Backend::TotalChecks() - warm_checks_before;
    if (warm_checks != 0) {
      out->Problem(StrCat("warm passes ran ", warm_checks, " Z3 checks"));
      ++out->failed;
    }

    const double pairs = static_cast<double>(cold_text.size());
    std::fprintf(stderr,
                 "verify-release: cold %.2f s (%lld Z3 checks), warm %zu passes, median %.4f s, "
                 "pair p50 %.0f us p99 %.0f us\n",
                 cold_s, static_cast<long long>(cold_checks), pass_s.size(), Median(pass_s),
                 Quantile(pair_us, 0.5), Quantile(pair_us, 0.99));
    out->e2e.Num("capacity_per_s", pairs / cold_s)
        .Num("p50_us", Quantile(pair_us, 0.50))
        .Num("p99_us", Quantile(pair_us, 0.99))
        .Num("verify_cold_s", cold_s)
        .Num("verify_warm_s", Median(pass_s))
        .Num("fail_ratio", static_cast<double>(out->failed) / static_cast<double>(out->attempted))
        .Num("peak_rss_mb", PeakRssMb());

    if (options.trace) {
      auto stage_s = [&](const char* name) {
        auto it = cold_totals.seconds.find(name);
        return it == cold_totals.seconds.end() ? 0.0 : it->second;
      };
      const double queries = static_cast<double>(cold_totals.solver_queries);
      out->layers.Num("frontend.compile_s", stage_s("compile"))
          .Num("analysis.prune_s", stage_s("prune"))
          .Int("analysis.panics_discharged", cold_totals.panics_discharged)
          .Int("analysis.paths_pruned", cold_totals.paths_pruned)
          .Num("dns.lift_s", stage_s("lift"))
          .Num("store.diff_s", stage_s("diff"))
          .Num("sym.explore_engine_s", stage_s("explore.engine"))
          .Num("sym.explore_spec_s", stage_s("explore.spec"))
          .Int("sym.engine_paths", cold_totals.engine_paths)
          .Int("sym.spec_paths", cold_totals.spec_paths)
          .Num("dnsv.compare_s", stage_s("compare"))
          .Num("dnsv.confirm_s", stage_s("confirm"))
          .Int("smt.z3_checks", cold_checks)
          .Int("smt.z3_checks_warm", warm_checks)
          .Num("smt.solve_s", cold_totals.solve_s)
          .Num("smt.cache_hit_ratio", queries > 0 ? cold_totals.solver_cache_hits / queries : 0)
          .Num("smt.presolve_ratio", queries > 0 ? cold_totals.presolve_discharges / queries : 0)
          .Num("store.replay_ratio",
               static_cast<double>(replayed) / static_cast<double>(warm_pairs))
          .Num("store.layers_reused_ratio",
               layers_total > 0 ? static_cast<double>(layers_reused) / layers_total : 0)
          .Int("store.bytes", store_bytes);
      if (!options.trace_path.empty() && !spans.WriteChromeTrace(options.trace_path, 0)) {
        out->Problem("cannot write trace " + options.trace_path);
      }
    }
  }
  std::filesystem::remove_all(root);
}

}  // namespace dnsv::perfbench
