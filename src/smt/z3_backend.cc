#include "src/smt/z3_backend.h"

#include <z3++.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "src/support/strings.h"

namespace dnsv {
namespace {

// Shared by every Z3Backend instance on every thread; see TotalChecks() and
// TotalContexts().
std::atomic<int64_t> g_total_z3_checks{0};
std::atomic<int64_t> g_total_z3_contexts{0};

}  // namespace

int64_t Z3Backend::TotalChecks() {
  return g_total_z3_checks.load(std::memory_order_relaxed);
}

int64_t Z3Backend::TotalContexts() {
  return g_total_z3_contexts.load(std::memory_order_relaxed);
}

struct Z3Backend::Impl {
  explicit Impl(TermArena* arena_in) : arena(arena_in), solver(ctx) {}

  // Go division truncates toward zero; SMT-LIB div is Euclidean (remainder in
  // [0,|b|)). With a = q_e*b + r_e and r_e >= 0: q_trunc equals q_e unless the
  // dividend is negative and the remainder nonzero, in which case the
  // truncated quotient is one step closer to zero (in the direction of b's
  // sign). Division by zero is unreachable here: the frontend guards every
  // div/mod with a panic block.
  z3::expr TruncatedDiv(const z3::expr& a, const z3::expr& b) {
    z3::expr q_e = a / b;
    z3::expr r_e = z3::mod(a, b);
    return z3::ite(a >= 0 || r_e == 0, q_e, z3::ite(b > 0, q_e + 1, q_e - 1));
  }

  z3::expr Translate(Term t) {
    auto it = cache.find(t.id());
    if (it != cache.end()) {
      return exprs[it->second];
    }
    const TermNode& n = arena->node(t);
    auto op = [&](size_t i) { return Translate(n.operands[i]); };
    z3::expr result(ctx);
    switch (n.kind) {
      case TermKind::kIntConst:
        result = ctx.int_val(n.int_value);
        break;
      case TermKind::kBoolConst:
        result = ctx.bool_val(n.int_value != 0);
        break;
      case TermKind::kVar:
        result = n.sort == Sort::kInt ? ctx.int_const(arena->VarName(t).c_str())
                                      : ctx.bool_const(arena->VarName(t).c_str());
        break;
      case TermKind::kAdd:
        result = op(0) + op(1);
        break;
      case TermKind::kSub:
        result = op(0) - op(1);
        break;
      case TermKind::kMul:
        result = op(0) * op(1);
        break;
      case TermKind::kDiv: {
        result = TruncatedDiv(op(0), op(1));
        break;
      }
      case TermKind::kMod: {
        // Go: a % b == a - trunc(a/b)*b (remainder sign follows dividend).
        z3::expr a = op(0), b = op(1);
        result = a - TruncatedDiv(a, b) * b;
        break;
      }
      case TermKind::kEq:
      case TermKind::kBoolEq:
        result = op(0) == op(1);
        break;
      case TermKind::kLt:
        result = op(0) < op(1);
        break;
      case TermKind::kLe:
        result = op(0) <= op(1);
        break;
      case TermKind::kAnd: {
        z3::expr_vector v(ctx);
        for (size_t i = 0; i < n.operands.size(); ++i) v.push_back(op(i));
        result = z3::mk_and(v);
        break;
      }
      case TermKind::kOr: {
        z3::expr_vector v(ctx);
        for (size_t i = 0; i < n.operands.size(); ++i) v.push_back(op(i));
        result = z3::mk_or(v);
        break;
      }
      case TermKind::kNot:
        result = !op(0);
        break;
      case TermKind::kIte:
        result = z3::ite(op(0), op(1), op(2));
        break;
    }
    cache.emplace(t.id(), exprs.size());
    exprs.push_back(result);
    return result;
  }

  void SetTimeout(int timeout_ms) {
    if (timeout_ms > 0) {
      z3::params p(ctx);
      p.set("timeout", static_cast<unsigned>(timeout_ms));
      solver.set(p);
    }
  }

  // Fresh solver object in the same context, frame stack re-asserted: the
  // first solver of a lazily built backend, or the replacement for one that
  // wedged on a timeout. The translation cache survives (it is keyed on the
  // context, not the solver).
  void Reset(int timeout_ms, const std::vector<std::vector<Term>>& frames) {
    solver = z3::solver(ctx);
    SetTimeout(timeout_ms);
    for (size_t i = 0; i < frames.size(); ++i) {
      if (i > 0) {
        solver.push();
      }
      for (Term t : frames[i]) {
        solver.add(Translate(t));
      }
    }
  }

  TermArena* arena;
  z3::context ctx;
  z3::solver solver;
  std::unordered_map<uint32_t, size_t> cache;
  std::vector<z3::expr> exprs;
};

Z3Backend::Z3Backend(TermArena* arena, int check_timeout_ms)
    : arena_(arena), check_timeout_ms_(check_timeout_ms) {}

Z3Backend::~Z3Backend() = default;

Z3Backend::Impl& Z3Backend::Materialize() {
  if (impl_ == nullptr) {
    impl_ = std::make_unique<Impl>(arena_);
    g_total_z3_contexts.fetch_add(1, std::memory_order_relaxed);
    impl_->Reset(check_timeout_ms_, frames_);
  }
  return *impl_;
}

void Z3Backend::Push() {
  if (impl_ != nullptr) {
    impl_->solver.push();
  }
  frames_.emplace_back();
}

void Z3Backend::Pop() {
  DNSV_CHECK(frames_.size() > 1);
  if (impl_ != nullptr) {
    impl_->solver.pop();
  }
  frames_.pop_back();
}

void Z3Backend::Assert(Term condition) {
  DNSV_CHECK(arena_->sort(condition) == Sort::kBool);
  if (impl_ != nullptr) {
    impl_->solver.add(impl_->Translate(condition));
  }
  frames_.back().push_back(condition);
}

SatResult Z3Backend::RunCheck(Term assumption) {
  Impl& impl = Materialize();
  auto run_once = [&]() -> z3::check_result {
    auto start = std::chrono::steady_clock::now();
    z3::check_result r;
    if (assumption.valid()) {
      z3::expr_vector assumptions(impl.ctx);
      assumptions.push_back(impl.Translate(assumption));
      r = impl.solver.check(assumptions);
    } else {
      r = impl.solver.check();
    }
    solve_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ++num_checks_;
    g_total_z3_checks.fetch_add(1, std::memory_order_relaxed);
    return r;
  };
  z3::check_result r = run_once();
  if (r == z3::unknown && check_timeout_ms_ > 0) {
    // Escalation: reset the solver (same context, frames re-asserted) and
    // retry once with double the budget.
    ++timeout_retries_;
    impl.Reset(check_timeout_ms_ * 2, frames_);
    r = run_once();
    impl.SetTimeout(check_timeout_ms_);
  }
  switch (r) {
    case z3::sat:
      return SatResult::kSat;
    case z3::unsat:
      return SatResult::kUnsat;
    default:
      ++unknowns_;
      return SatResult::kUnknown;
  }
}

SatResult Z3Backend::Check() { return RunCheck(Term()); }

SatResult Z3Backend::CheckAssuming(Term assumption) { return RunCheck(assumption); }

Model Z3Backend::GetModel() {
  Model model;
  z3::model m = Materialize().solver.get_model();
  for (unsigned i = 0; i < m.num_consts(); ++i) {
    z3::func_decl decl = m.get_const_decl(i);
    z3::expr value = m.get_const_interp(decl);
    if (value.is_numeral()) {
      int64_t v = 0;
      if (value.is_numeral_i64(v)) {
        model.Set(decl.name().str(), v);
      }
    } else if (value.is_bool()) {
      model.Set(decl.name().str(), value.is_true() ? 1 : 0);
    }
  }
  return model;
}

}  // namespace dnsv
