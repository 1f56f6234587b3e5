#include "src/sym/refine.h"

#include "src/support/status.h"
#include "src/support/strings.h"

namespace dnsv {

SymbolicIntList MakeSymbolicIntList(TermArena* arena, const std::string& name, int capacity,
                                    int64_t min_elem, int64_t max_elem) {
  SymbolicIntList result;
  Term len = arena->Var(name + ".len", Sort::kInt);
  std::vector<Term> constraints = {arena->Le(arena->IntConst(0), len),
                                   arena->Le(len, arena->IntConst(capacity))};
  std::vector<SymValue> elems;
  elems.reserve(static_cast<size_t>(capacity));
  for (int i = 0; i < capacity; ++i) {
    Term element = arena->Var(StrCat(name, ".", i), Sort::kInt);
    constraints.push_back(arena->Le(arena->IntConst(min_elem), element));
    constraints.push_back(arena->Le(element, arena->IntConst(max_elem)));
    elems.push_back(SymValue::OfTerm(element));
  }
  result.value.kind = SymValue::Kind::kList;
  result.value.elems = std::move(elems);
  result.value.list_len = len;
  result.constraints = arena->AndN(constraints);
  return result;
}

SymbolicInt MakeSymbolicInt(TermArena* arena, const std::string& name, int64_t min,
                            int64_t max) {
  SymbolicInt result;
  Term var = arena->Var(name, Sort::kInt);
  result.value = SymValue::OfTerm(var);
  result.constraints =
      arena->And(arena->Le(arena->IntConst(min), var), arena->Le(var, arena->IntConst(max)));
  return result;
}

Term SymValueEqTerm(const SymValue& a, const SymValue& b, TermArena* arena) {
  if (a.kind != b.kind) {
    return arena->False();
  }
  switch (a.kind) {
    case SymValue::Kind::kUnit:
      return arena->True();
    case SymValue::Kind::kTerm:
      return arena->Eq(a.term, b.term);
    case SymValue::Kind::kPtr:
      return arena->BoolConst(a.block == b.block && a.path == b.path);
    case SymValue::Kind::kStruct: {
      if (a.elems.size() != b.elems.size()) {
        return arena->False();
      }
      std::vector<Term> conjuncts;
      conjuncts.reserve(a.elems.size());
      for (size_t i = 0; i < a.elems.size(); ++i) {
        conjuncts.push_back(SymValueEqTerm(a.elems[i], b.elems[i], arena));
      }
      return arena->AndN(conjuncts);
    }
    case SymValue::Kind::kList: {
      std::vector<Term> conjuncts = {arena->Eq(a.list_len, b.list_len)};
      size_t bound = std::max(a.elems.size(), b.elems.size());
      for (size_t i = 0; i < bound; ++i) {
        Term guard = arena->Lt(arena->IntConst(static_cast<int64_t>(i)), a.list_len);
        // An index < len beyond one side's capacity cannot happen under the
        // global length bounds; False under the guard keeps it conservative.
        Term elem_eq = (i < a.elems.size() && i < b.elems.size())
                           ? SymValueEqTerm(a.elems[i], b.elems[i], arena)
                           : arena->False();
        conjuncts.push_back(arena->Implies(guard, elem_eq));
      }
      return arena->AndN(conjuncts);
    }
  }
  DNSV_CHECK(false);
  return arena->False();
}

RefinementResult CheckFunctionRefinement(SymExecutor* executor, const Function& impl,
                                         const Function& spec,
                                         const std::vector<SymValue>& args,
                                         const SymState& initial_state) {
  RefinementResult result;
  TermArena& arena = executor->arena();
  std::vector<PathOutcome> impl_paths;
  try {
    impl_paths = executor->Explore(impl, args, initial_state);
  } catch (const DnsvError& e) {
    result.aborted = true;
    result.abort_reason = StrCat("impl exploration: ", e.what());
    return result;
  }
  result.impl_paths = static_cast<int64_t>(impl_paths.size());
  for (const PathOutcome& impl_path : impl_paths) {
    if (impl_path.kind == PathOutcome::Kind::kPanicked) {
      RefinementMismatch mismatch;
      mismatch.description = "implementation can panic: " + impl_path.panic_message;
      if (executor->solver().CheckAssuming(impl_path.state.pc) == SatResult::kSat) {
        mismatch.model = executor->solver().GetModel();
      }
      result.mismatches.push_back(std::move(mismatch));
      continue;
    }
    // Explore the spec under this path's condition; every spec path must
    // agree on the return value.
    SymState spec_state = initial_state;
    spec_state.pc = impl_path.state.pc;
    std::vector<PathOutcome> spec_paths;
    try {
      spec_paths = executor->Explore(spec, args, spec_state);
    } catch (const DnsvError& e) {
      result.aborted = true;
      result.abort_reason = StrCat("spec exploration: ", e.what());
      return result;
    }
    result.spec_paths += static_cast<int64_t>(spec_paths.size());
    for (const PathOutcome& spec_path : spec_paths) {
      if (spec_path.kind == PathOutcome::Kind::kPanicked) {
        RefinementMismatch mismatch;
        mismatch.description = "specification panics: " + spec_path.panic_message;
        result.mismatches.push_back(std::move(mismatch));
        continue;
      }
      Term equal = SymValueEqTerm(impl_path.return_value, spec_path.return_value, &arena);
      Term bad = arena.And(spec_path.state.pc, arena.Not(equal));
      if (executor->solver().CheckAssuming(bad) == SatResult::kSat) {
        RefinementMismatch mismatch;
        mismatch.model = executor->solver().GetModel();
        mismatch.description = StrCat(
            "return values differ: impl=", impl_path.return_value.ToString(arena),
            " spec=", spec_path.return_value.ToString(arena), " under model ",
            mismatch.model.ToString());
        result.mismatches.push_back(std::move(mismatch));
      }
    }
  }
  return result;
}

}  // namespace dnsv
