// Symbolic executor tests: MiniGo source -> AbsIR -> full-path exploration.
#include "src/sym/executor.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/frontend/frontend.h"
#include "src/sym/refine.h"
#include "src/sym/summary.h"

namespace dnsv {
namespace {

class SymExecTest : public ::testing::Test {
 protected:
  void Compile(const std::string& source) {
    types_ = std::make_unique<TypeTable>();
    module_ = std::make_unique<Module>(types_.get());
    Result<CompileOutput> compiled = CompileMiniGo({{"test.mg", source}}, module_.get());
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    arena_ = std::make_unique<TermArena>();
    solver_ = std::make_unique<SolverSession>(arena_.get());
    executor_ = std::make_unique<SymExecutor>(module_.get(), arena_.get(), solver_.get());
  }

  std::vector<PathOutcome> Explore(const std::string& fn, const std::vector<SymValue>& args,
                                   Term extra_constraint = Term()) {
    SymState state;
    state.pc = extra_constraint.valid() ? extra_constraint : arena_->True();
    return executor_->Explore(*module_->GetFunction(fn), args, state);
  }

  int CountPanics(const std::vector<PathOutcome>& outcomes) {
    int n = 0;
    for (const PathOutcome& o : outcomes) {
      if (o.kind == PathOutcome::Kind::kPanicked) {
        ++n;
      }
    }
    return n;
  }

  std::unique_ptr<TypeTable> types_;
  std::unique_ptr<Module> module_;
  std::unique_ptr<TermArena> arena_;
  std::unique_ptr<SolverSession> solver_;
  std::unique_ptr<SymExecutor> executor_;
};

TEST_F(SymExecTest, StraightLineSinglePath) {
  Compile("func f(x int) int { return x + 1 }");
  auto outcomes = Explore("f", {SymValue::OfTerm(arena_->Var("x", Sort::kInt))});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, PathOutcome::Kind::kReturned);
  EXPECT_EQ(arena_->ToString(outcomes[0].return_value.term), "(+ x 1)");
}

TEST_F(SymExecTest, SymbolicBranchForksTwoPaths) {
  Compile("func f(x int) int { if x > 0 { return 1 }\nreturn 2 }");
  auto outcomes = Explore("f", {SymValue::OfTerm(arena_->Var("x", Sort::kInt))});
  EXPECT_EQ(outcomes.size(), 2u);
}

TEST_F(SymExecTest, InfeasibleBranchPruned) {
  Compile(R"(
func f(x int) int {
  if x > 10 {
    if x < 5 {
      return 99
    }
    return 1
  }
  return 2
}
)");
  auto outcomes = Explore("f", {SymValue::OfTerm(arena_->Var("x", Sort::kInt))});
  // The x>10 && x<5 path is infeasible; only 2 paths remain.
  ASSERT_EQ(outcomes.size(), 2u);
  for (const PathOutcome& o : outcomes) {
    int64_t v = 0;
    if (arena_->AsIntConst(o.return_value.term, &v)) {
      EXPECT_NE(v, 99);
    }
  }
}

TEST_F(SymExecTest, ConcreteBranchNoFork) {
  Compile("func f() int { if 3 > 2 { return 1 }\nreturn 2 }");
  auto outcomes = Explore("f", {});
  ASSERT_EQ(outcomes.size(), 1u);
  int64_t v = 0;
  ASSERT_TRUE(arena_->AsIntConst(outcomes[0].return_value.term, &v));
  EXPECT_EQ(v, 1);
}

TEST_F(SymExecTest, LoopOverSymbolicLengthList) {
  Compile(R"(
func sum(xs []int) int {
  s := 0
  for i := 0; i < len(xs); i = i + 1 {
    s = s + xs[i]
  }
  return s
}
)");
  SymbolicIntList xs = MakeSymbolicIntList(arena_.get(), "xs", 3, 0, 100);
  auto outcomes = Explore("sum", {xs.value}, xs.constraints);
  // One path per possible length 0..3.
  EXPECT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(CountPanics(outcomes), 0);
}

TEST_F(SymExecTest, ReachablePanicReported) {
  Compile(R"(
func get(xs []int, i int) int {
  return xs[i]
}
)");
  SymbolicIntList xs = MakeSymbolicIntList(arena_.get(), "xs", 2, 0, 9);
  SymbolicInt i = MakeSymbolicInt(arena_.get(), "i", -10, 10);
  auto outcomes =
      Explore("get", {xs.value, i.value}, arena_->And(xs.constraints, i.constraints));
  // Paths: panic (i out of range), plus in-range reads.
  EXPECT_GE(CountPanics(outcomes), 1);
  bool found_read = false;
  for (const PathOutcome& o : outcomes) {
    found_read = found_read || o.kind == PathOutcome::Kind::kReturned;
  }
  EXPECT_TRUE(found_read);
}

TEST_F(SymExecTest, GuardedAccessHasNoPanicPath) {
  Compile(R"(
func get(xs []int, i int) int {
  if i >= 0 && i < len(xs) {
    return xs[i]
  }
  return -1
}
)");
  SymbolicIntList xs = MakeSymbolicIntList(arena_.get(), "xs", 2, 0, 9);
  SymbolicInt i = MakeSymbolicInt(arena_.get(), "i", -10, 10);
  auto outcomes =
      Explore("get", {xs.value, i.value}, arena_->And(xs.constraints, i.constraints));
  EXPECT_EQ(CountPanics(outcomes), 0);
}

TEST_F(SymExecTest, NilCheckPanicFeasibleOnlyForNull) {
  Compile(R"(
type T struct { x int }
func f(p *T) int { return p.x }
)");
  // Null argument: the only path is the panic.
  auto null_outcomes = Explore("f", {SymValue::NullPtr()});
  ASSERT_EQ(null_outcomes.size(), 1u);
  EXPECT_EQ(null_outcomes[0].kind, PathOutcome::Kind::kPanicked);
  // Valid pointer to a concrete block: single clean path.
  SymState state;
  state.pc = arena_->True();
  BlockIndex b = state.memory.Alloc(SymValue::Struct({SymValue::OfTerm(arena_->IntConst(5))}));
  auto outcomes = executor_->Explore(*module_->GetFunction("f"), {SymValue::Ptr(b)}, state);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, PathOutcome::Kind::kReturned);
}

TEST_F(SymExecTest, CallsAreInlined) {
  Compile(R"(
func abs(x int) int {
  if x < 0 {
    return 0 - x
  }
  return x
}
func f(a int, b int) int { return abs(a) + abs(b) }
)");
  auto outcomes = Explore("f", {SymValue::OfTerm(arena_->Var("a", Sort::kInt)),
                                SymValue::OfTerm(arena_->Var("b", Sort::kInt))});
  EXPECT_EQ(outcomes.size(), 4u);  // 2 x 2 paths
}

TEST_F(SymExecTest, MemoryEffectsVisibleInFinalState) {
  Compile(R"(
type R struct { code int }
func set(r *R, v int) { r.code = v * 2 }
)");
  SymState state;
  state.pc = arena_->True();
  BlockIndex b = state.memory.Alloc(SymValue::Struct({SymValue::OfTerm(arena_->IntConst(0))}));
  Term v = arena_->Var("v", Sort::kInt);
  auto outcomes = executor_->Explore(*module_->GetFunction("set"),
                                     {SymValue::Ptr(b), SymValue::OfTerm(v)}, state);
  ASSERT_EQ(outcomes.size(), 1u);
  const SymValue* field = outcomes[0].state.memory.Resolve(b, {0});
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(arena_->ToString(field->term), "(* v 2)");
}

TEST_F(SymExecTest, ShortCircuitPrunesRhsEvaluation) {
  Compile(R"(
func f(x int) int {
  if x != 0 && 10/x > 1 {
    return 1
  }
  return 0
}
)");
  SymbolicInt x = MakeSymbolicInt(arena_.get(), "x", -100, 100);
  auto outcomes = Explore("f", {x.value}, x.constraints);
  // No division-by-zero panic is feasible (guard short-circuits).
  EXPECT_EQ(CountPanics(outcomes), 0);
}

TEST_F(SymExecTest, ListEqBuiltinSymbolic) {
  Compile("func f(a []int, b []int) bool { return listEq(a, b) }");
  SymbolicIntList a = MakeSymbolicIntList(arena_.get(), "a", 2, 0, 9);
  SymbolicIntList b = MakeSymbolicIntList(arena_.get(), "b", 2, 0, 9);
  auto outcomes = Explore("f", {a.value, b.value}, arena_->And(a.constraints, b.constraints));
  ASSERT_EQ(outcomes.size(), 1u);
  Term eq = outcomes[0].return_value.term;
  // eq must be satisfiable both ways.
  EXPECT_EQ(solver_->CheckAssuming(eq), SatResult::kSat);
  EXPECT_EQ(solver_->CheckAssuming(arena_->Not(eq)), SatResult::kSat);
  // And equal lengths+elements forces true.
  Term forced = arena_->AndN(
      {arena_->Eq(a.value.list_len, arena_->IntConst(1)),
       arena_->Eq(b.value.list_len, arena_->IntConst(1)),
       arena_->Eq(a.value.elems[0].term, arena_->IntConst(5)),
       arena_->Eq(b.value.elems[0].term, arena_->IntConst(5)), arena_->Not(eq)});
  EXPECT_EQ(solver_->CheckAssuming(forced), SatResult::kUnsat);
}

TEST_F(SymExecTest, AppendToSymbolicLengthListRejected) {
  Compile("func f(xs []int) []int { return append(xs, 1) }");
  SymbolicIntList xs = MakeSymbolicIntList(arena_.get(), "xs", 2, 0, 9);
  EXPECT_THROW(Explore("f", {xs.value}, xs.constraints), DnsvError);
}

TEST_F(SymExecTest, PathConditionsArePairwiseDisjoint) {
  Compile(R"(
func classify(x int) int {
  if x < 0 {
    return 0
  }
  if x == 0 {
    return 1
  }
  if x < 10 {
    return 2
  }
  return 3
}
)");
  SymbolicInt x = MakeSymbolicInt(arena_.get(), "x", -100, 100);
  auto outcomes = Explore("classify", {x.value}, x.constraints);
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    for (size_t j = i + 1; j < outcomes.size(); ++j) {
      Term both = arena_->And(outcomes[i].state.pc, outcomes[j].state.pc);
      EXPECT_EQ(solver_->CheckAssuming(both), SatResult::kUnsat)
          << "paths " << i << " and " << j << " overlap";
    }
  }
}

TEST_F(SymExecTest, PathCoverageIsExhaustive) {
  Compile(R"(
func f(x int) int {
  if x % 2 == 0 {
    return 0
  }
  return 1
}
)");
  SymbolicInt x = MakeSymbolicInt(arena_.get(), "x", 0, 50);
  auto outcomes = Explore("f", {x.value}, x.constraints);
  // The disjunction of path conditions must cover the input constraint.
  std::vector<Term> pcs;
  for (const PathOutcome& o : outcomes) {
    pcs.push_back(o.state.pc);
  }
  Term covered = arena_->OrN(pcs);
  Term uncovered = arena_->And(x.constraints, arena_->Not(covered));
  EXPECT_EQ(solver_->CheckAssuming(uncovered), SatResult::kUnsat);
}

// ---- Persistent state: forked paths share memory until they write it ----

// Reads an int field of `block` in `outcome`'s final memory.
int64_t FieldAt(const TermArena& arena, const PathOutcome& outcome, BlockIndex block,
                const SymPath& path) {
  const SymValue* value = outcome.state.memory.Resolve(block, path);
  int64_t v = -1;
  EXPECT_TRUE(value != nullptr && arena.AsIntConst(value->term, &v));
  return v;
}

TEST_F(SymExecTest, StoresAfterAForkStayOnTheirOwnPath) {
  Compile(R"(
type R struct {
  code int
  other int
}
func f(r *R, x int) {
  if x > 0 {
    r.code = 1
  } else {
    r.code = 2
  }
}
)");
  SymState state;
  state.pc = arena_->True();
  BlockIndex b = state.memory.Alloc(
      SymValue::Struct({SymValue::OfTerm(arena_->IntConst(0)),
                        SymValue::OfTerm(arena_->IntConst(5))}));
  const SymMemory parent = state.memory;
  SymValue x = SymValue::OfTerm(arena_->Var("x", Sort::kInt));
  auto outcomes = executor_->Explore(*module_->GetFunction("f"), {SymValue::Ptr(b), x}, state);
  ASSERT_EQ(outcomes.size(), 2u);
  std::vector<int64_t> codes = {FieldAt(*arena_, outcomes[0], b, {0}),
                                FieldAt(*arena_, outcomes[1], b, {0})};
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(codes, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(FieldAt(*arena_, outcomes[0], b, {1}), 5);
  // Neither the caller's state nor the memory it started from changed.
  int64_t v = -1;
  ASSERT_TRUE(arena_->AsIntConst(state.memory.Resolve(b, {0})->term, &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(arena_->AsIntConst(parent.Resolve(b, {0})->term, &v));
  EXPECT_EQ(v, 0);
}

TEST_F(SymExecTest, AllocOnOneBranchDoesNotShiftTheOtherBranchsBlocks) {
  Compile(R"(
type T struct { v int }
func g(x int) *T {
  if x > 0 {
    a := new(T)
    a.v = 5
  }
  p := new(T)
  p.v = 1
  return p
}
)");
  auto outcomes = Explore("g", {SymValue::OfTerm(arena_->Var("x", Sort::kInt))});
  ASSERT_EQ(outcomes.size(), 2u);
  const PathOutcome* with_extra = &outcomes[0];
  const PathOutcome* without = &outcomes[1];
  if (with_extra->state.memory.num_blocks() < without->state.memory.num_blocks()) {
    std::swap(with_extra, without);
  }
  ASSERT_EQ(with_extra->kind, PathOutcome::Kind::kReturned);
  ASSERT_EQ(without->kind, PathOutcome::Kind::kReturned);
  size_t extra = with_extra->state.memory.num_blocks() - without->state.memory.num_blocks();
  ASSERT_GT(extra, 0u);
  BlockIndex p_with = with_extra->return_value.block;
  BlockIndex p_without = without->return_value.block;
  // The branch that allocated `a` hands `p` the ids after it; the other
  // branch's `p` takes the first id that branch's allocations took.
  EXPECT_EQ(p_with, p_without + extra);
  EXPECT_EQ(without->state.memory.Resolve(p_with, {}), nullptr);
  EXPECT_EQ(FieldAt(*arena_, *without, p_without, {0}), 1);
  EXPECT_EQ(FieldAt(*arena_, *with_extra, p_with, {0}), 1);
}

TEST_F(SymExecTest, SummaryWriteBackToASharedBlockStaysOnItsPath) {
  Compile(R"(
type Out struct {
  code int
  flag bool
}
func classify(x int, out *Out) {
  if x < 0 {
    out.code = 0
    return
  }
  if x < 10 {
    out.code = 1
    out.flag = true
    return
  }
  out.code = 2
}
func driver(x int, out *Out) {
  classify(x, out)
}
)");
  Summarizer summarizer(module_.get(), arena_.get(), solver_.get(), SymMemory(), 3, 1000);
  summarizer.Configure({"classify", {ParamMode::kSymbolicInt, ParamMode::kOutStruct}});
  executor_->set_summary_provider(&summarizer);
  SymState state;
  state.pc = arena_->True();
  BlockIndex out = state.memory.Alloc(
      SymValue::Struct({SymValue::OfTerm(arena_->IntConst(7)),
                        SymValue::OfTerm(arena_->BoolConst(false))}));
  auto outcomes = executor_->Explore(*module_->GetFunction("driver"),
                                     {SymValue::OfTerm(arena_->Var("x", Sort::kInt)),
                                      SymValue::Ptr(out)},
                                     state);
  EXPECT_EQ(summarizer.stats().applications, 1);
  ASSERT_EQ(outcomes.size(), 3u);
  std::vector<int64_t> codes;
  int flags = 0;
  for (const PathOutcome& o : outcomes) {
    codes.push_back(FieldAt(*arena_, o, out, {0}));
    bool flag = false;
    ASSERT_TRUE(arena_->AsBoolConst(o.state.memory.Resolve(out, {1})->term, &flag));
    flags += flag ? 1 : 0;
  }
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(codes, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(flags, 1);
  int64_t code = -1;
  ASSERT_TRUE(arena_->AsIntConst(state.memory.Resolve(out, {0})->term, &code));
  EXPECT_EQ(code, 7);
}

}  // namespace
}  // namespace dnsv
