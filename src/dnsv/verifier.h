// DNS-V: the verification workflow of paper Fig. 6 applied to the engine.
//
// Given an engine version and a concrete zone configuration, the verifier
//   1. compiles the engine + spec to AbsIR and materializes the zone as a
//      concrete in-heap domain tree (§6.5),
//   2. makes qname/qtype symbolic and performs full-path symbolic execution
//      of Resolve — either monolithically or with the evolving resolution
//      layers replaced by automatically computed summaries (§5.3),
//   3. checks safety (no feasible path reaches a panic block) and functional
//      correctness (every engine path agrees with every rrlookup spec path
//      reachable under its path condition), and
//   4. decodes each violation into a concrete counterexample query, which is
//      re-executed on the concrete interpreter for confirmation.
#ifndef DNSV_DNSV_VERIFIER_H_
#define DNSV_DNSV_VERIFIER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/summary.h"
#include "src/dns/example_zones.h"
#include "src/engine/engine.h"
#include "src/smt/backend.h"
#include "src/sym/summary.h"

namespace dnsv {

class ArtifactStore;  // src/store/store.h

// How the pipeline uses the content-addressed artifact store
// (docs/INCREMENTAL.md). The DNSV_STORE_FORCE environment variable
// overrides the option at RunVerifyPipeline entry: off | shadow | cold.
enum class StoreMode : uint8_t {
  kAuto,         // kIncremental when a store is bound, else kOff
  kOff,          // ignore the store entirely
  kIncremental,  // replay stored reports on a key hit; write artifacts back
  kShadow,       // recompute everything, assert byte-identity with the store
  kCold,         // never read (rebuild), still write artifacts
};

struct VerifyOptions {
  // Symbolic qname capacity = zone's deepest owner + this many extra labels.
  int extra_qname_labels = 1;
  // Apply automated summaries to the resolution layers (§5.3) instead of
  // inlining everything.
  bool use_summaries = false;
  // Substitute manually-developed specs for stable library layers (§6.3,
  // Fig. 6 left branch). Each substitution is preceded by a refinement check
  // spec ≡ implementation; on refinement failure the report aborts.
  bool use_manual_specs = false;
  // Stop after this many distinct issues.
  int max_issues = 8;
  // Skip the functional check (safety only).
  bool safety_only = false;
  // Meta-check of "full-path": engine path conditions must be pairwise
  // disjoint and jointly cover the whole symbolic input space. Quadratic in
  // the path count; intended for tests and audits, not the fast path.
  bool check_path_coverage = false;
  // Run the engine-path and spec-path explorations on separate worker
  // threads. Each worker owns a private TermArena + SolverSession (Z3
  // contexts are not thread-safe, so the isolation is mandatory either way);
  // results are merged deterministically, so the issue list is byte-identical
  // to serial mode.
  bool parallel_explore = true;
  // Run the AbsIR dataflow pruner (src/analysis) over the compiled module
  // before symbolic execution, fed the interprocedural analysis suite
  // (src/analysis/{callgraph,summary,sccp,alias,escape}.h): SCCP folds the
  // version feature gates out of the CFG, panic guards the abstract
  // interpretation discharges become jmps, and unreachable blocks are
  // deleted. Sound by construction — a guard is only rewritten when its
  // panic side is proved infeasible — so verdicts and counterexamples are
  // identical with the flag on or off; only the solver-check count shrinks.
  bool prune = false;
  // Solver-access policy (src/smt/backend.h): which layers sit between the
  // sessions and Z3 (query cache, interval pre-solver), shadow validation,
  // and the per-check timeout. Every session the pipeline creates — explore
  // workers, compare stage, refinement checks, summarization — uses this
  // config, so the layering is a pipeline-wide choice. The DNSV_SOLVER_FORCE
  // environment variable overrides it at RunVerifyPipeline entry.
  SolverConfig solver;
  // Artifact store for incremental re-verification (docs/INCREMENTAL.md).
  // nullptr consults DNSV_STORE_DIR via ArtifactStore::FromEnv(); tests bind
  // a private store here for hermeticity. When a store is active and the
  // solver layering is kDirect, the pipeline upgrades it to kCachePresolve —
  // persistence without the cache layer would have nothing to persist.
  ArtifactStore* store = nullptr;
  StoreMode store_mode = StoreMode::kAuto;
};

// Packet-level replay of a counterexample — the Confirm stage's last mile
// (docs/WIRE.md). The decoded query is lowered to wire bytes, parsed back,
// executed on the concrete interpreter for both the engine and the spec, and
// both responses are encoded to wire. `reproduced` means the two response
// packets differ byte for byte: the bug the verifier reported is visible on
// the wire, not only in the verifier's decoded views.
struct WireReplay {
  bool attempted = false;   // false when lowering or encoding failed (see error)
  bool reproduced = false;  // engine and spec response packets differ
  std::string error;
  std::vector<uint8_t> query_packet;
  std::vector<uint8_t> engine_packet;
  std::vector<uint8_t> spec_packet;

  std::string ToString() const;
};

struct VerificationIssue {
  enum class Kind : uint8_t { kSafety, kFunctional };
  Kind kind = Kind::kFunctional;
  std::string description;
  // Decoded counterexample query.
  std::string qname;
  RrType qtype = RrType::kA;
  // Concrete re-execution of the counterexample (confirmation).
  bool confirmed = false;
  std::string engine_behavior;  // response text or panic message
  std::string spec_behavior;
  // Table-2 style classification derived from the confirmed counterexample:
  // "Runtime Error", "Wrong Flag", "Wrong Answer", "Wrong rcode",
  // "Wrong Authority", "Wrong Additional" (possibly several, '/'-joined).
  std::string classification;
  // Wire-level replay of the counterexample (SMT model -> bytes on the wire).
  WireReplay wire;

  std::string ToString() const;
};

// Wall-clock / solver breakdown of one pipeline stage (paper Fig. 6 box).
struct StageStats {
  std::string stage;  // compile | prune | lift | explore.engine | explore.spec
                      // | compare | confirm
  double seconds = 0;
  bool from_cache = false;  // compile/prune/lift/explore.spec: served from the
                            // VerifyContext cache (explore.spec then shows 0 s
                            // and no solver work)
  // Prune stage only: guards proved safe and rewritten, and total paths the
  // rewrite removes from exploration (discharged guards + deleted blocks).
  int64_t panics_discharged = 0;
  int64_t paths_pruned = 0;
  // Solver counters for this stage's session(s): `solver.z3_checks` and
  // `solver.solve_seconds` (the portion of `seconds` spent inside Z3) are
  // always printed; the layer fields only light up when the cache /
  // pre-solver layers are enabled, and ToString prints them only then.
  SolverStats solver;

  std::string ToString() const;
};

// What the artifact store contributed to one pipeline run: the dirty-set
// diff (which functions/layers were already covered by stored markers under
// this zone + options), whether the whole report was replayed, and the
// cross-process query-cache transfer. All zero/false when no store is bound,
// keeping stored-free reports byte-identical to the pre-store behavior.
struct IncrementalStats {
  bool store_enabled = false;
  bool replayed = false;        // report served verbatim from the store
  bool shadow_checked = false;  // full re-run compared clean against the store
  bool summaries_reused = false;  // interproc facts replayed, not recomputed
  bool prune_fingerprint_checked = false;  // warm post-prune hash cross-checked
  int64_t qcache_entries_loaded = 0;  // solver verdicts imported from disk
  int64_t functions_total = 0;   // reachable functions hashed for the diff
  int64_t functions_reused = 0;  // cone hash had a stored exploration marker
  int64_t layers_total = 0;      // Fig.-5 layers of this version
  int64_t layers_reused = 0;     // layer cone hash had a stored marker
  std::vector<std::string> dirty_functions;  // no marker: recomputed this run
  std::vector<std::string> dirty_layers;

  double LayerReuseRate() const {
    return layers_total == 0 ? 0.0
                             : static_cast<double>(layers_reused) /
                                   static_cast<double>(layers_total);
  }
  std::string ToString() const;
};

struct VerificationReport {
  EngineVersion version = EngineVersion::kGolden;
  bool verified = false;  // no issues and exploration completed
  bool aborted = false;
  std::string abort_reason;
  std::vector<VerificationIssue> issues;
  // Statistics (feed the Fig.-12 and Table-2 harnesses).
  int64_t engine_paths = 0;
  int64_t spec_paths = 0;
  double total_seconds = 0;
  int64_t summaries_computed = 0;
  int64_t summary_applications = 0;
  int64_t manual_specs_verified = 0;   // refinement obligations discharged
  int64_t spec_substitutions = 0;      // call sites served by a manual spec
  bool path_coverage_checked = false;  // the full-path meta-check ran and held
  bool pruned = false;                 // exploration ran on the pruned module
  // Interprocedural-analysis breakdown (per-pass wall clock + outcome
  // counters), zero unless the prune stage ran. Printed alongside the
  // SolverStats lines.
  AnalysisStats analysis;
  // Per-stage observability: one entry per executed pipeline stage, in
  // execution order (explore.engine/explore.spec may have run concurrently).
  // The "prune" entry carries the pruner's counters.
  std::vector<StageStats> stages;
  bool explored_in_parallel = false;
  // Solver-layer counters aggregated over every session this run created
  // (a spec exploration served from the VerifyContext contributes none).
  // `solver.z3_checks` and `solver.solve_seconds` are the run's Z3 totals.
  SolverStats solver;
  // Artifact-store contribution (docs/INCREMENTAL.md); defaults when no
  // store is bound.
  IncrementalStats incremental;

  // The first stage named `name`, or null when that stage did not run.
  const StageStats* FindStage(std::string_view name) const;
  std::string ToString() const;
};

// The Fig.-5 interface configurations for the evolving (blue) layers; these
// are the summarization targets shared by every engine version.
std::vector<FunctionInterface> ResolutionLayerInterfaces();

VerificationReport VerifyEngine(EngineVersion version, const ZoneConfig& zone,
                                const VerifyOptions& options = {});

}  // namespace dnsv

#endif  // DNSV_DNSV_VERIFIER_H_
