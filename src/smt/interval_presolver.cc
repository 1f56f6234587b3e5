#include "src/smt/interval_presolver.h"

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/analysis/interval.h"
#include "src/support/logging.h"

namespace dnsv {
namespace {

// Constants this close to the int64 extremes would collide with the interval
// lattice's infinity sentinels (which absorb the concrete extremes) or
// overflow the ±1 adjustments below; such queries fall through to Z3.
bool SafeConst(int64_t v) {
  return v > Interval::kNegInf + 2 && v < Interval::kPosInf - 2;
}

using CmpOp = LiteralBounds::CmpOp;

struct Atom {
  CmpOp op;
  Term lhs;
  Term rhs;
};

}  // namespace

struct LiteralBounds::Residual {
  std::unordered_map<uint32_t, std::set<int64_t>> exclusions;
  std::vector<Atom> atoms;
};

bool LiteralBounds::Add(Term t, Residual* residual) {
  return AddConjunct(t, /*negated=*/false, residual);
}

bool LiteralBounds::ConflictsWith(const LiteralBounds& other) const {
  if (unsat_ || other.unsat_) return true;
  const LiteralBounds& small = intervals_.size() <= other.intervals_.size() ? *this : other;
  const LiteralBounds& large = &small == this ? other : *this;
  for (const auto& [var_id, iv] : small.intervals_) {
    auto it = large.intervals_.find(var_id);
    if (it != large.intervals_.end() && !Meet(iv, it->second)) return true;
  }
  for (const auto& [var_id, value] : bool_values_) {
    auto it = other.bool_values_.find(var_id);
    if (it != other.bool_values_.end() && it->second != value) return true;
  }
  return false;
}

bool LiteralBounds::AddConjunct(Term t, bool negated, Residual* residual) {
  const TermNode& n = arena_->node(t);
  switch (n.kind) {
    case TermKind::kBoolConst:
      if ((n.int_value != 0) == negated) unsat_ = true;
      return true;
    case TermKind::kNot:
      return AddConjunct(n.operands[0], !negated, residual);
    case TermKind::kVar: {
      bool value = !negated;
      auto [it, inserted] = bool_values_.emplace(t.id(), value);
      if (!inserted && it->second != value) unsat_ = true;
      return true;
    }
    case TermKind::kAnd: {
      if (negated) return false;  // ¬(a ∧ b) is a disjunction
      bool ok = true;
      for (Term op : n.operands) ok = AddConjunct(op, false, residual) && ok;
      return ok;
    }
    case TermKind::kLt:
      return negated ? AddAtom(CmpOp::kLe, n.operands[1], n.operands[0], residual)
                     : AddAtom(CmpOp::kLt, n.operands[0], n.operands[1], residual);
    case TermKind::kLe:
      return negated ? AddAtom(CmpOp::kLt, n.operands[1], n.operands[0], residual)
                     : AddAtom(CmpOp::kLe, n.operands[0], n.operands[1], residual);
    case TermKind::kEq:
      return AddAtom(negated ? CmpOp::kNe : CmpOp::kEq, n.operands[0], n.operands[1],
                     residual);
    default:
      return false;  // kOr, kBoolEq, and anything non-boolean
  }
}

bool LiteralBounds::AddAtom(CmpOp op, Term lhs, Term rhs, Residual* residual) {
  const TermNode& ln = arena_->node(lhs);
  const TermNode& rn = arena_->node(rhs);
  bool lhs_var = ln.kind == TermKind::kVar;
  bool rhs_var = rn.kind == TermKind::kVar;
  bool lhs_const = ln.kind == TermKind::kIntConst;
  bool rhs_const = rn.kind == TermKind::kIntConst;
  if (lhs_const && rhs_const) {
    bool holds = false;
    switch (op) {
      case CmpOp::kLt: holds = ln.int_value < rn.int_value; break;
      case CmpOp::kLe: holds = ln.int_value <= rn.int_value; break;
      case CmpOp::kEq: holds = ln.int_value == rn.int_value; break;
      case CmpOp::kNe: holds = ln.int_value != rn.int_value; break;
    }
    if (!holds) unsat_ = true;
    return true;
  }
  if (lhs_var && rhs_const) {
    return RefineVarConst(op, lhs, rn.int_value, /*var_on_left=*/true, residual);
  }
  if (lhs_const && rhs_var) {
    return RefineVarConst(op, rhs, ln.int_value, /*var_on_left=*/false, residual);
  }
  if (residual != nullptr) residual->atoms.push_back({op, lhs, rhs});
  return true;
}

// Handles var ⋈ const (var_on_left) and const ⋈ var literals.
bool LiteralBounds::RefineVarConst(CmpOp op, Term var, int64_t c, bool var_on_left,
                                   Residual* residual) {
  if (!SafeConst(c)) return false;
  switch (op) {
    case CmpOp::kLt:
      MeetVar(var, var_on_left ? Interval{Interval::kNegInf, c - 1}
                               : Interval{c + 1, Interval::kPosInf});
      return true;
    case CmpOp::kLe:
      MeetVar(var, var_on_left ? Interval{Interval::kNegInf, c}
                               : Interval{c, Interval::kPosInf});
      return true;
    case CmpOp::kEq:
      MeetVar(var, Interval::Const(c));
      return true;
    case CmpOp::kNe:
      if (residual != nullptr) residual->exclusions[var.id()].insert(c);
      return true;
  }
  return false;
}

void LiteralBounds::MeetVar(Term var, Interval refinement) {
  auto [it, inserted] = intervals_.emplace(var.id(), Interval::Top());
  std::optional<Interval> met = Meet(it->second, refinement);
  if (!met) {
    unsat_ = true;
  } else {
    it->second = *met;
  }
}

namespace {

// One-shot decision over a conjunction; see the header for the procedure.
class Decider {
 public:
  explicit Decider(const TermArena& arena) : arena_(arena), bounds_(arena) {}

  std::optional<SatResult> Decide(const std::vector<Term>& terms) {
    bool bail = false;
    for (Term t : terms) {
      if (!bounds_.Add(t, &residual_)) {
        bail = true;
      }
    }
    // A contradiction among the decidable literals refutes the whole
    // conjunction even when other literals were outside the fragment.
    if (bounds_.unsat()) return SatResult::kUnsat;
    if (bail) return std::nullopt;

    // Phase 2: compound atoms under the phase-1 intervals. Provably-false
    // beats undecided (same reasoning as above), so scan all atoms first.
    bool undecided = false;
    for (const Atom& atom : residual_.atoms) {
      std::optional<Interval> lhs = Eval(atom.lhs);
      std::optional<Interval> rhs = Eval(atom.rhs);
      if (!lhs || !rhs) {
        undecided = true;
        continue;
      }
      switch (Judge(atom.op, *lhs, *rhs)) {
        case Verdict::kFalse:
          return SatResult::kUnsat;
        case Verdict::kTrue:
          break;
        case Verdict::kUndecided:
          undecided = true;
          break;
      }
    }
    if (undecided) return std::nullopt;

    // Every literal is decided; SAT iff each variable's interval retains a
    // point outside its exclusion set (any such per-variable assignment
    // satisfies the conjunction, since the surviving phase-2 atoms hold for
    // all values in the intervals).
    for (const auto& [var_id, iv] : bounds_.intervals()) {
      auto it = residual_.exclusions.find(var_id);
      static const std::set<int64_t> kNoExclusions;
      if (!HasWitness(iv, it == residual_.exclusions.end() ? kNoExclusions : it->second)) {
        return SatResult::kUnsat;
      }
    }
    // Variables with only exclusions keep an unbounded interval, which always
    // retains a witness; boolean assignments are consistent by construction.
    return SatResult::kSat;
  }

 private:
  enum class Verdict { kTrue, kFalse, kUndecided };

  // Interval of an integer expression under the phase-1 intervals; nullopt
  // outside the +,-,* fragment. (Ignoring exclusion sets here is sound: they
  // only shrink each variable's feasible set, so the interval still
  // over-approximates it.)
  std::optional<Interval> Eval(Term t) {
    const TermNode& n = arena_.node(t);
    switch (n.kind) {
      case TermKind::kIntConst:
        if (!SafeConst(n.int_value)) return std::nullopt;
        return Interval::Const(n.int_value);
      case TermKind::kVar: {
        if (n.sort != Sort::kInt) return std::nullopt;
        auto it = bounds_.intervals().find(t.id());
        return it == bounds_.intervals().end() ? Interval::Top() : it->second;
      }
      case TermKind::kAdd:
      case TermKind::kSub:
      case TermKind::kMul: {
        std::optional<Interval> acc = Eval(n.operands[0]);
        for (size_t i = 1; acc && i < n.operands.size(); ++i) {
          std::optional<Interval> next = Eval(n.operands[i]);
          if (!next) return std::nullopt;
          switch (n.kind) {
            case TermKind::kAdd: acc = IntervalAdd(*acc, *next); break;
            case TermKind::kSub: acc = IntervalSub(*acc, *next); break;
            default: acc = IntervalMul(*acc, *next); break;
          }
        }
        return acc;
      }
      default:
        return std::nullopt;  // div/mod/ite need relational reasoning
    }
  }

  static Verdict Judge(CmpOp op, const Interval& a, const Interval& b) {
    switch (op) {
      case CmpOp::kLt:
        if (ProvablyLt(a, b)) return Verdict::kTrue;
        if (ProvablyLe(b, a)) return Verdict::kFalse;
        return Verdict::kUndecided;
      case CmpOp::kLe:
        if (ProvablyLe(a, b)) return Verdict::kTrue;
        if (ProvablyLt(b, a)) return Verdict::kFalse;
        return Verdict::kUndecided;
      case CmpOp::kEq:
        if (a.IsConst() && b.IsConst() && a == b) return Verdict::kTrue;
        if (ProvablyNe(a, b)) return Verdict::kFalse;
        return Verdict::kUndecided;
      case CmpOp::kNe:
        if (ProvablyNe(a, b)) return Verdict::kTrue;
        if (a.IsConst() && b.IsConst() && a == b) return Verdict::kFalse;
        return Verdict::kUndecided;
    }
    return Verdict::kUndecided;
  }

  static bool HasWitness(const Interval& iv, const std::set<int64_t>& excl) {
    if (iv.lo == Interval::kNegInf || iv.hi == Interval::kPosInf) {
      return true;  // infinitely many points, finitely many exclusions
    }
    uint64_t span = static_cast<uint64_t>(iv.hi) - static_cast<uint64_t>(iv.lo);
    if (span >= excl.size()) {
      return true;  // span+1 points, at most |excl| of them excluded
    }
    for (int64_t v = iv.lo; v <= iv.hi; ++v) {  // at most |excl| iterations
      if (excl.count(v) == 0) return true;
    }
    return false;
  }

  const TermArena& arena_;
  LiteralBounds bounds_;
  LiteralBounds::Residual residual_;
};

}  // namespace

IntervalPreSolver::IntervalPreSolver(TermArena* arena, SolverBackend* inner,
                                     bool shadow_validate, bool shadow_fatal)
    : arena_(arena),
      inner_(inner),
      shadow_validate_(shadow_validate),
      shadow_fatal_(shadow_fatal) {}

void IntervalPreSolver::Push() {
  frames_.emplace_back();
  inner_->Push();
}

void IntervalPreSolver::Pop() {
  DNSV_CHECK(frames_.size() > 1);
  frames_.pop_back();
  inner_->Pop();
}

void IntervalPreSolver::Assert(Term condition) {
  frames_.back().push_back(condition);
  inner_->Assert(condition);
}

std::optional<SatResult> IntervalPreSolver::Decide(const std::vector<Term>& terms) const {
  return Decider(*arena_).Decide(terms);
}

SatResult IntervalPreSolver::RunCheck(Term assumption) {
  last_assumption_ = assumption;
  last_answered_locally_ = false;

  std::vector<Term> conjunction;
  for (const std::vector<Term>& frame : frames_) {
    conjunction.insert(conjunction.end(), frame.begin(), frame.end());
  }
  if (assumption.valid()) {
    conjunction.push_back(assumption);
  }
  std::optional<SatResult> verdict = Decide(conjunction);
  if (!verdict) {
    ++fallthroughs_;
    return assumption.valid() ? inner_->CheckAssuming(assumption) : inner_->Check();
  }
  ++discharges_;
  if (shadow_validate_) {
    ++shadow_checks_;
    SatResult truth =
        assumption.valid() ? inner_->CheckAssuming(assumption) : inner_->Check();
    if (truth != *verdict && truth != SatResult::kUnknown) {
      ++shadow_mismatches_;
      DNSV_LOG(kError) << "interval pre-solver shadow mismatch: presolver="
                       << static_cast<int>(*verdict) << " z3=" << static_cast<int>(truth);
      DNSV_CHECK_MSG(!shadow_fatal_, "unsound pre-solver verdict (shadow validation)");
      return truth;
    }
    return *verdict;
  }
  last_answered_locally_ = true;
  return *verdict;
}

SatResult IntervalPreSolver::Check() { return RunCheck(Term()); }

SatResult IntervalPreSolver::CheckAssuming(Term assumption) {
  DNSV_CHECK(assumption.valid());
  return RunCheck(assumption);
}

Model IntervalPreSolver::GetModel() {
  if (last_answered_locally_) {
    // The inner backend never saw the discharged check; replay it so the
    // model comes from the session's own Z3 (possibly through the cache,
    // which replays in turn).
    SatResult replay = last_assumption_.valid() ? inner_->CheckAssuming(last_assumption_)
                                                : inner_->Check();
    DNSV_CHECK_MSG(replay == SatResult::kSat,
                   "pre-solver kSat verdict did not replay as sat");
    last_answered_locally_ = false;
  }
  return inner_->GetModel();
}

}  // namespace dnsv
