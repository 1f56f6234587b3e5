#include "src/dnsv/verifier.h"

#include "src/dnsv/pipeline.h"
#include "src/support/strings.h"

namespace dnsv {

std::string WireReplay::ToString() const {
  if (!attempted) {
    return error.empty() ? std::string("not attempted")
                         : StrCat("not replayable: ", error);
  }
  return StrCat(query_packet.size(), "-byte query packet; response packets ",
                reproduced ? "diverge" : "agree", " (engine ", engine_packet.size(),
                " bytes, spec ", spec_packet.size(), " bytes)");
}

std::string VerificationIssue::ToString() const {
  std::string out =
      StrCat(kind == Kind::kSafety ? "[SAFETY] " : "[FUNCTIONAL] ", description, "\n");
  out += StrCat("  counterexample: ", qname, " ", RrTypeDisplay(qtype),
                confirmed ? "  (confirmed on the concrete interpreter)" : "", "\n");
  out += "  engine: " + engine_behavior + "\n";
  out += "  spec:   " + spec_behavior + "\n";
  out += "  wire:   " + wire.ToString() + "\n";
  return out;
}

std::string StageStats::ToString() const {
  std::string out = StrCat("    ", stage, ": ", seconds, "s");
  if (from_cache) {
    out += " (cached)";
  }
  // Always report the count: "0 solver checks" and "no entry" mean different
  // things to a reader diffing two reports, so zero is printed, not omitted.
  out += StrCat(", ", solver.z3_checks, " solver checks (", solver.solve_seconds, "s)");
  if (stage == "prune") {
    out += StrCat(", ", panics_discharged, " panics discharged, ", paths_pruned,
                  " paths pruned");
  }
  // Solver-layer breakdown, printed only when a layer actually did something
  // (default direct-to-Z3 runs keep the historical line byte-identical).
  if (solver.cache_hits + solver.cache_misses + solver.presolver_discharges +
          solver.shadow_checks >
      0) {
    out += StrCat(", layered: ", solver.queries, " queries, ", solver.cache_hits,
                  " cache hits, ", solver.presolver_discharges, " presolved");
  }
  if (solver.unknowns > 0 || solver.timeout_retries > 0) {
    out += StrCat(", ", solver.unknowns, " unknown(s), ", solver.timeout_retries,
                  " timeout retries");
  }
  return out;
}

std::string IncrementalStats::ToString() const {
  if (!store_enabled) {
    return "store off";
  }
  std::string out = replayed ? "replayed" : "recomputed";
  out += StrCat(", layers ", layers_reused, "/", layers_total, " reused");
  if (qcache_entries_loaded > 0) {
    out += StrCat(", ", qcache_entries_loaded, " solver verdicts from disk");
  }
  if (shadow_checked) {
    out += ", shadow-checked against store";
  }
  return out;
}

const StageStats* VerificationReport::FindStage(std::string_view name) const {
  for (const StageStats& stage : stages) {
    if (stage.stage == name) return &stage;
  }
  return nullptr;
}

std::string VerificationReport::ToString() const {
  std::string out = StrCat("=== DNS-V report: engine ", EngineVersionName(version), " ===\n");
  if (aborted) {
    out += "ABORTED: " + abort_reason + "\n";
    return out;
  }
  out += verified ? "VERIFIED: safety and functional correctness hold on this zone\n"
                  : StrCat(issues.size(), " issue(s) found\n");
  for (const VerificationIssue& issue : issues) {
    out += issue.ToString();
  }
  out += StrCat("  engine paths: ", engine_paths, ", spec paths: ", spec_paths,
                ", solver checks: ", solver.z3_checks, " (", solver.solve_seconds, "s), total ",
                total_seconds, "s\n");
  if (summaries_computed > 0) {
    out += StrCat("  summaries: ", summaries_computed, " computed, ", summary_applications,
                  " applications\n");
  }
  if (manual_specs_verified > 0) {
    out += StrCat("  manual specs: ", manual_specs_verified, " refinement obligation(s) ",
                  "discharged, ", spec_substitutions, " call sites substituted\n");
  }
  if (const StageStats* prune = FindStage("prune"); pruned && prune != nullptr) {
    out += StrCat("  prune: ", prune->panics_discharged, " panics discharged, ",
                  prune->paths_pruned, " paths pruned\n");
  }
  if (!analysis.IsZero()) {
    out += StrCat("  analysis: ", analysis.ToString(), "\n");
  }
  if (solver.cache_hits + solver.cache_misses + solver.presolver_discharges +
          solver.shadow_checks >
      0) {
    out += StrCat("  solver layer: ", solver.queries, " queries, ", solver.z3_checks,
                  " reached Z3, ", solver.cache_hits, " cache hits, ",
                  solver.presolver_discharges, " presolver discharges, ",
                  solver.asserts_deduped, " asserts deduped\n");
    if (solver.cache_disk_hits > 0) {
      // Cross-process share of the cache saving (store-loaded entries); zero
      // without a store, keeping the historical output byte-identical.
      out += StrCat("  solver cache from disk: ", solver.cache_disk_hits, " hits\n");
    }
    if (solver.shadow_checks > 0) {
      out += StrCat("  shadow validation: ", solver.shadow_checks, " checks, ",
                    solver.shadow_mismatches, " mismatches\n");
    }
  }
  if (solver.unknowns > 0 || solver.timeout_retries > 0) {
    out += StrCat("  solver unknowns: ", solver.unknowns, " (", solver.timeout_retries,
                  " timeout retries)\n");
  }
  // Printed only when a store was bound, so store-free reports stay
  // byte-identical to the pre-store format.
  if (incremental.store_enabled) {
    out += StrCat("  incremental: ", incremental.ToString(), "\n");
  }
  if (!stages.empty()) {
    out += StrCat("  stages (", explored_in_parallel ? "parallel" : "serial",
                  " exploration):\n");
    for (const StageStats& stage : stages) {
      out += stage.ToString() + "\n";
    }
  }
  return out;
}

std::vector<FunctionInterface> ResolutionLayerInterfaces() {
  using M = ParamMode;
  return {
      // treeSearch(apex, rel, stopAtNS, out, stack)
      {"treeSearch",
       {M::kConcrete, M::kSymbolicIntList, M::kConcrete, M::kOutStruct, M::kOutStruct}},
      // answerExact(apex, origin, node, qname, qtype, resp)
      {"answerExact",
       {M::kConcrete, M::kConcrete, M::kConcrete, M::kSymbolicIntList, M::kSymbolicInt,
        M::kOutStruct}},
      // wildcardAnswer(apex, origin, wc, qname, qtype, resp)
      {"wildcardAnswer",
       {M::kConcrete, M::kConcrete, M::kConcrete, M::kSymbolicIntList, M::kSymbolicInt,
        M::kOutStruct}},
  };
}

VerificationReport VerifyEngine(EngineVersion version, const ZoneConfig& zone,
                                const VerifyOptions& options) {
  // One-shot entry point: a throwaway context (no reuse across calls). Batch
  // callers create a VerifyContext and use RunVerifyPipeline directly.
  VerifyContext context;
  return RunVerifyPipeline(&context, version, zone, options);
}

}  // namespace dnsv
