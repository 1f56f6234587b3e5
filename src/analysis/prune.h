// Prove-and-prune: statically discharge GoLLVM safety checks before the
// symbolic executor sees them.
//
// PruneModule front-loads the whole-module analyses from callgraph.h /
// summary.h / alias.h / escape.h, then runs three steps over each function:
//
//  1. SCCP (sccp.h) folds every constant branch — feature gates first of
//     all — and the dead sides are deleted BEFORE the fixpoint runs, so the
//     domain never wastes precision joining states from disabled features.
//     The dataflow re-derives reverse postorder and reachability from the
//     rewritten CFG; nothing from before the edge deletion is reused.
//
//  2. Panic discharge — the PruneDomain fixpoint, fed callee summaries
//     (purity, non-nil and constant returns), entry facts for functions no
//     driver calls directly, and escape-proven protected allocations. A
//     conditional branch guarding a panic block whose panic side the
//     abstract state proves infeasible (index in [0, len), divisor nonzero,
//     pointer non-nil) is rewritten into an unconditional jmp to the safe
//     side. The symbolic executor pays two solver checks per symbolic br and
//     zero per jmp, so every discharged check saves solver work on every
//     path that crosses it — for every version x zone verified. Branches
//     whose *safe* side is infeasible (a genuinely reachable panic) are left
//     untouched: the verifier must still report them.
//
//  3. Unreachable-block elimination — blocks no terminator edge reaches
//     (orphaned panic blocks after discharge, plus frontend-emitted dead
//     continuations) are deleted and the function is compactly rebuilt.
//
// PruneFunction(module, fn) runs steps 2 and 3 with the intraprocedural
// domain alone (no whole-module facts, no SCCP); it is the unit the
// hand-written-IR tests exercise.
//
// PruneFunction re-validates the result (with the reachability invariant on)
// before returning; soundness is additionally guarded by the differential
// interpreter tests in tests/analysis/.
#ifndef DNSV_ANALYSIS_PRUNE_H_
#define DNSV_ANALYSIS_PRUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/summary.h"
#include "src/ir/function.h"

namespace dnsv {

struct PruneStats {
  int64_t functions_analyzed = 0;
  int64_t functions_skipped = 0;     // escaping allocas or non-convergence
  int64_t panics_discharged = 0;     // safety-check brs rewritten into jmps
  int64_t blocks_removed = 0;        // unreachable blocks deleted
  int64_t panic_blocks_removed = 0;  // subset of blocks_removed

  // The static measure reported as `paths_pruned`: CFG exits the executor
  // will never fork into again (one per discharged guard) plus whole blocks
  // it can no longer enter.
  int64_t PathsPruned() const { return panics_discharged + blocks_removed; }

  PruneStats& operator+=(const PruneStats& other);
  std::string ToString() const;
};

struct PruneOptions {
  // Functions external drivers may call directly: their parameters are
  // never specialized to in-module call-site facts and their allocations may
  // escape to the caller. See EngineAnalysisRoots().
  std::vector<std::string> entry_points;
};

// Prunes one function in place using the intraprocedural domain alone. The
// module is needed for re-validation.
PruneStats PruneFunction(const Module& module, Function* fn);

// Same, consuming (and — for allocation-site renumbering — updating) a
// precomputed interprocedural context. `interproc` may be null. Analysis
// timings/counters accumulate into `analysis` when non-null.
PruneStats PruneFunction(const Module& module, Function* fn, InterprocContext* interproc,
                         AnalysisStats* analysis);

// Builds the call graph, summaries, points-to, and escape facts for the
// module, then prunes every function and
// aggregates the stats. Analysis pass stats land in `analysis` when
// non-null.
PruneStats PruneModule(Module* module, const PruneOptions& options, AnalysisStats* analysis);

}  // namespace dnsv

#endif  // DNSV_ANALYSIS_PRUNE_H_
