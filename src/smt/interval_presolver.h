// IntervalPreSolver: decides pure bound/compare conjunctions without Z3.
//
// The vast majority of feasibility probes the symbolic executor issues are
// conjunctions of simple integer comparisons — the qname/qtype range
// constraints plus branch conditions over interned label codes and list
// lengths (paper §4.2 restricts path conditions to exactly this fragment).
// This layer reuses the interval lattice from src/analysis/interval.h to
// answer such queries directly and falls through to the inner backend on
// anything it cannot decide soundly.
//
// Decision procedure (see docs/SMT.md for the soundness argument):
//   1. Flatten the conjunction; normalize Not through comparisons
//      (¬(a<b) ≡ b≤a, ¬(a≤b) ≡ b<a, ¬(a=b) ≡ a≠b). Bail on any conjunct
//      outside the fragment (Or, Ite, div/mod, bool equality, …); boolean
//      variable literals are handled as forced truth assignments.
//   2. Phase 1: literals of shape var⋈const refine per-variable intervals
//      (≠ collects a finite exclusion set). An empty interval, an
//      exhausted exclusion range, or conflicting bool literals ⇒ UNSAT.
//   3. Phase 2: every remaining literal (var⋈var, or comparisons over
//      +,-,* expressions) is evaluated with interval arithmetic under the
//      phase-1 intervals: provably false ⇒ UNSAT; provably true ⇒ drop;
//      otherwise the query is undecided and falls through.
//   4. SAT only when every literal was decided and every variable has a
//      witness point in its interval outside its exclusions — then any
//      per-variable witness satisfies the whole conjunction, because the
//      surviving phase-2 literals hold for *all* values in the intervals.
//
// The pre-solver never returns kUnknown and never fabricates models: a
// GetModel after a discharged kSat replays the query on the inner backend
// (cache, then Z3), keeping counterexamples byte-identical.
#ifndef DNSV_SMT_INTERVAL_PRESOLVER_H_
#define DNSV_SMT_INTERVAL_PRESOLVER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/analysis/interval.h"
#include "src/smt/backend.h"
#include "src/smt/canon.h"

namespace dnsv {

// Phase 1 of the procedure above, over one conjunction: the var⋈const
// literals folded into per-variable intervals, the boolean variable
// literals as forced truth values, and whether those alone are already
// contradictory. Conjuncts outside the fragment are skipped (Add reports
// them), as are var⋈const literals whose constant sits at the int64
// extremes. The pre-solver builds its decision on this; the compare stage
// (src/dnsv/pipeline.cc) keeps one per path condition and skips a pair of
// paths whose bounds conflict, which is a pair phase 1 refutes anyway.
class LiteralBounds {
 public:
  enum class CmpOp : uint8_t { kLt, kLe, kEq, kNe };

  // The literals phase 1 parses but does not fold into bounds: var≠const
  // exclusions and compound atoms (var⋈var, arithmetic). Only the
  // pre-solver's later phases read them.
  struct Residual;

  explicit LiteralBounds(const TermArena& arena) : arena_(&arena) {}

  // Folds conjunct `t` in; literals it does not fold go to `residual` when
  // given. False when some part of `t` is outside the decidable fragment.
  bool Add(Term t, Residual* residual = nullptr);

  // The folded literals are contradictory on their own.
  bool unsat() const { return unsat_; }
  // The conjunction of both literal sets is contradictory: either side is,
  // some variable's two intervals do not meet, or some boolean variable is
  // forced both ways.
  bool ConflictsWith(const LiteralBounds& other) const;

  // Keyed by the variable's term id.
  const std::unordered_map<uint32_t, Interval>& intervals() const { return intervals_; }

 private:
  bool AddConjunct(Term t, bool negated, Residual* residual);
  bool AddAtom(CmpOp op, Term lhs, Term rhs, Residual* residual);
  bool RefineVarConst(CmpOp op, Term var, int64_t c, bool var_on_left, Residual* residual);
  void MeetVar(Term var, Interval refinement);

  const TermArena* arena_;
  bool unsat_ = false;
  std::unordered_map<uint32_t, Interval> intervals_;
  std::unordered_map<uint32_t, bool> bool_values_;
};

class IntervalPreSolver : public SolverBackend {
 public:
  // When shadow_validate is set, every discharged verdict is re-checked on
  // the inner backend (same contract as CachingBackend's shadow mode).
  IntervalPreSolver(TermArena* arena, SolverBackend* inner, bool shadow_validate,
                    bool shadow_fatal);

  void Push() override;
  void Pop() override;
  void Assert(Term condition) override;
  SatResult Check() override;
  SatResult CheckAssuming(Term assumption) override;
  Model GetModel() override;

  int64_t discharges() const { return discharges_; }
  int64_t fallthroughs() const { return fallthroughs_; }
  int64_t shadow_checks() const { return shadow_checks_; }
  int64_t shadow_mismatches() const { return shadow_mismatches_; }

  // Decides the conjunction of `terms` with interval reasoning alone;
  // nullopt when outside the decidable fragment. Exposed for unit tests.
  std::optional<SatResult> Decide(const std::vector<Term>& terms) const;

 private:
  SatResult RunCheck(Term assumption);

  TermArena* arena_;
  SolverBackend* inner_;
  bool shadow_validate_ = false;
  bool shadow_fatal_ = false;

  std::vector<std::vector<Term>> frames_ = {{}};

  Term last_assumption_;
  bool last_answered_locally_ = false;

  int64_t discharges_ = 0;
  int64_t fallthroughs_ = 0;
  int64_t shadow_checks_ = 0;
  int64_t shadow_mismatches_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_SMT_INTERVAL_PRESOLVER_H_
