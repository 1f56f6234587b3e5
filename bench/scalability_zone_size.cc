// Scalability sweep (not a paper figure, but the question every §8 reader
// asks): how does whole-engine verification time grow with zone size? The
// engine exploration grows with tree shape; the spec side grows with the
// record count because rrlookup filters the whole list per path.
//
// Golden engine over generated zones (seed 17, depth 2; `max_names` picked
// so the points have 8, 20, 30, 57 and 79 records), verified on the
// cache+presolve solver stack that every store-backed run uses, each point
// with a fresh query cache. Every point is written to BENCH_scale.json in
// the working directory (one record per zone: per-stage seconds, path and
// solver counts); the markdown table printed at the end is rendered from
// those records and is what EXPERIMENTS.md shows.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/support/strings.h"
#include "src/zonegen/zonegen.h"

namespace dnsv {
namespace {

constexpr int kNamesPerPoint[] = {2, 8, 16, 42, 47};

std::string Seconds(double s) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.2f", s);
  return text;
}

struct Point {
  int names = 0;
  size_t records = 0;
  VerificationReport report;

  double Stage(const char* name) const {
    const StageStats* stage = report.FindStage(name);
    return stage == nullptr ? 0 : stage->seconds;
  }
  const char* Verdict() const {
    return report.aborted ? "aborted" : report.verified ? "verified" : "issues";
  }
};

int RunScalability() {
  SetLogLevel(LogLevel::kWarning);
  // This harness owns the solver configuration.
  unsetenv("DNSV_SOLVER_FORCE");
  std::printf("Scalability: golden-engine verification time vs zone size (cache+presolve)\n\n");
  std::printf("%7s %8s %9s %9s %9s %9s %6s %6s %9s %6s %9s\n", "records", "total", "spec",
              "engine", "compare", "confirm", "spec", "engine", "solver", "z3", "verdict");
  std::printf("%7s %8s %9s %9s %9s %9s %6s %6s %9s %6s\n", "", "(s)", "(s)", "(s)", "(s)",
              "(s)", "paths", "paths", "queries", "checks");
  VerifyContext context;  // one golden-engine compile across the whole sweep
  std::vector<Point> points;
  for (int names : kNamesPerPoint) {
    ZoneGenOptions zone_options;
    zone_options.max_names = names;
    zone_options.max_depth = 2;
    ZoneConfig zone = GenerateZone(17, zone_options);
    QueryCache cache;
    VerifyOptions options;
    options.solver.layering = SolverLayering::kCachePresolve;
    options.solver.cache = &cache;
    Point point;
    point.names = names;
    point.records = zone.records.size();
    point.report = RunVerifyPipeline(&context, EngineVersion::kGolden, zone, options);
    const VerificationReport& r = point.report;
    std::printf("%7zu %8.2f %9.3f %9.3f %9.3f %9.3f %6lld %6lld %9lld %6lld %9s\n",
                point.records, r.total_seconds, point.Stage("explore.spec"),
                point.Stage("explore.engine"), point.Stage("compare"), point.Stage("confirm"),
                static_cast<long long>(r.spec_paths), static_cast<long long>(r.engine_paths),
                static_cast<long long>(r.solver.queries),
                static_cast<long long>(r.solver.z3_checks), point.Verdict());
    std::fflush(stdout);
    points.push_back(std::move(point));
  }

  std::string json = "[\n";
  std::string table =
      "| records | total (s) | explore.spec (s) | explore.engine (s) | compare (s) | spec paths "
      "| engine paths | solver queries | Z3 checks |\n|---|---|---|---|---|---|---|---|---|\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const VerificationReport& r = p.report;
    json += StrCat(i == 0 ? "" : ",\n", "  {\"seed\": 17, \"max_depth\": 2, \"max_names\": ",
                   p.names, ", \"records\": ", p.records, ", \"solver\": \"cache+presolve\"",
                   ", \"total_s\": ", r.total_seconds,
                   ", \"explore_spec_s\": ", p.Stage("explore.spec"),
                   ", \"explore_engine_s\": ", p.Stage("explore.engine"),
                   ", \"compare_s\": ", p.Stage("compare"), ", \"confirm_s\": ", p.Stage("confirm"),
                   ", \"spec_paths\": ", r.spec_paths, ", \"engine_paths\": ", r.engine_paths,
                   ", \"solver_queries\": ", r.solver.queries,
                   ", \"z3_checks\": ", r.solver.z3_checks, ", \"verdict\": \"", p.Verdict(),
                   "\"}");
    table += StrCat("| ", p.records, " | ", Seconds(r.total_seconds), " | ",
                    Seconds(p.Stage("explore.spec")), " | ",
                    Seconds(p.Stage("explore.engine")), " | ",
                    Seconds(p.Stage("compare")), " | ", r.spec_paths, " | ",
                    r.engine_paths, " | ", r.solver.queries, " | ", r.solver.z3_checks, " |\n");
  }
  json += "\n]\n";
  std::FILE* out = std::fopen("BENCH_scale.json", "w");
  if (out == nullptr) {
    std::printf("\ncannot write BENCH_scale.json\n");
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("\nwrote BENCH_scale.json; as markdown:\n\n%s", table.c_str());
  for (const Point& p : points) {
    if (p.report.aborted) {
      std::printf("\n%zu-record point aborted: %s\n", p.records,
                  p.report.abort_reason.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunScalability(); }
