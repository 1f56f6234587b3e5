#include "src/smt/solver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/smt/interval_presolver.h"
#include "src/smt/z3_backend.h"
#include "src/smt/term.h"
#include "src/support/rng.h"

namespace dnsv {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : solver_(&arena_) {}
  TermArena arena_;
  SolverSession solver_;
};

TEST_F(SolverTest, TrivialSat) {
  Term x = arena_.Var("x", Sort::kInt);
  solver_.Assert(arena_.Eq(x, arena_.IntConst(3)));
  EXPECT_EQ(solver_.Check(), SatResult::kSat);
  Model m = solver_.GetModel();
  int64_t v = 0;
  ASSERT_TRUE(m.Get("x", &v));
  EXPECT_EQ(v, 3);
}

TEST_F(SolverTest, TrivialUnsat) {
  Term x = arena_.Var("x", Sort::kInt);
  solver_.Assert(arena_.Lt(x, arena_.IntConst(0)));
  solver_.Assert(arena_.Lt(arena_.IntConst(0), x));
  EXPECT_EQ(solver_.Check(), SatResult::kUnsat);
}

TEST_F(SolverTest, PushPopRestoresState) {
  Term x = arena_.Var("x", Sort::kInt);
  solver_.Assert(arena_.Le(arena_.IntConst(0), x));
  solver_.Push();
  solver_.Assert(arena_.Lt(x, arena_.IntConst(0)));
  EXPECT_EQ(solver_.Check(), SatResult::kUnsat);
  solver_.Pop();
  EXPECT_EQ(solver_.Check(), SatResult::kSat);
}

TEST_F(SolverTest, CheckAssumingDoesNotPersist) {
  Term x = arena_.Var("x", Sort::kInt);
  solver_.Assert(arena_.Eq(x, arena_.IntConst(1)));
  EXPECT_EQ(solver_.CheckAssuming(arena_.Eq(x, arena_.IntConst(2))), SatResult::kUnsat);
  EXPECT_EQ(solver_.Check(), SatResult::kSat);
}

TEST_F(SolverTest, GoDivisionSemantics) {
  // -7 / 2 == -3 and -7 % 2 == -1 under Go truncation.
  Term a = arena_.Var("a", Sort::kInt);
  Term q = arena_.Var("q", Sort::kInt);
  Term r = arena_.Var("r", Sort::kInt);
  solver_.Assert(arena_.Eq(a, arena_.IntConst(-7)));
  solver_.Assert(arena_.Eq(q, arena_.Div(a, arena_.IntConst(2))));
  solver_.Assert(arena_.Eq(r, arena_.Mod(a, arena_.IntConst(2))));
  ASSERT_EQ(solver_.Check(), SatResult::kSat);
  Model m = solver_.GetModel();
  int64_t v = 0;
  ASSERT_TRUE(m.Get("q", &v));
  EXPECT_EQ(v, -3);
  ASSERT_TRUE(m.Get("r", &v));
  EXPECT_EQ(v, -1);
}

// Property sweep: symbolic div/mod must agree with C++'s (== Go's) semantics
// for every sign combination.
class DivModParamTest : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(DivModParamTest, MatchesTruncatedSemantics) {
  auto [a_val, b_val] = GetParam();
  TermArena arena;
  SolverSession solver(&arena);
  Term a = arena.Var("a", Sort::kInt);
  Term b = arena.Var("b", Sort::kInt);
  solver.Assert(arena.Eq(a, arena.IntConst(a_val)));
  solver.Assert(arena.Eq(b, arena.IntConst(b_val)));
  // Claim the symbolic result differs from the concrete one: must be UNSAT.
  Term bad = arena.OrN({arena.Ne(arena.Div(a, b), arena.IntConst(a_val / b_val)),
                        arena.Ne(arena.Mod(a, b), arena.IntConst(a_val % b_val))});
  solver.Assert(bad);
  EXPECT_EQ(solver.Check(), SatResult::kUnsat)
      << "a=" << a_val << " b=" << b_val;
}

INSTANTIATE_TEST_SUITE_P(
    SignCombinations, DivModParamTest,
    ::testing::Values(std::pair<int64_t, int64_t>{7, 2}, std::pair<int64_t, int64_t>{-7, 2},
                      std::pair<int64_t, int64_t>{7, -2}, std::pair<int64_t, int64_t>{-7, -2},
                      std::pair<int64_t, int64_t>{6, 3}, std::pair<int64_t, int64_t>{-6, 3},
                      std::pair<int64_t, int64_t>{6, -3}, std::pair<int64_t, int64_t>{-6, -3},
                      std::pair<int64_t, int64_t>{0, 5}, std::pair<int64_t, int64_t>{1, 1},
                      std::pair<int64_t, int64_t>{-1, 1}, std::pair<int64_t, int64_t>{13, 5},
                      std::pair<int64_t, int64_t>{-13, 5}, std::pair<int64_t, int64_t>{13, -5},
                      std::pair<int64_t, int64_t>{-13, -5}));

TEST_F(SolverTest, ModelForBooleanVars) {
  Term p = arena_.Var("p", Sort::kBool);
  solver_.Assert(p);
  ASSERT_EQ(solver_.Check(), SatResult::kSat);
  Model m = solver_.GetModel();
  int64_t v = 0;
  ASSERT_TRUE(m.Get("p", &v));
  EXPECT_EQ(v, 1);
}

TEST_F(SolverTest, LinearArithmetic) {
  // The paper's summaries produce conjunctions of simple LIA constraints;
  // make sure a representative one solves instantly.
  Term n0 = arena_.Var("n0", Sort::kInt);
  Term n1 = arena_.Var("n1", Sort::kInt);
  Term len = arena_.Var("nameLen", Sort::kInt);
  std::vector<Term> cond = {
      arena_.Ge(len, arena_.IntConst(3)),
      arena_.Eq(n0, arena_.IntConst(100)),   // int("com")
      arena_.Eq(n1, arena_.IntConst(200)),   // int("example")
  };
  solver_.Assert(arena_.AndN(cond));
  EXPECT_EQ(solver_.Check(), SatResult::kSat);
  solver_.Assert(arena_.Lt(len, arena_.IntConst(3)));
  EXPECT_EQ(solver_.Check(), SatResult::kUnsat);
}

// --- LiteralBounds: phase 1 of the interval pre-solver -----------------------

class LiteralBoundsTest : public ::testing::Test {
 protected:
  Term Int(int64_t v) { return arena_.IntConst(v); }
  LiteralBounds Bounds(const std::vector<Term>& conjuncts) {
    LiteralBounds bounds(arena_);
    for (Term t : conjuncts) bounds.Add(t);
    return bounds;
  }
  bool Conflict(const std::vector<Term>& a, const std::vector<Term>& b) {
    return Bounds(a).ConflictsWith(Bounds(b));
  }

  TermArena arena_;
  Term x_ = arena_.Var("x", Sort::kInt);
  Term b_ = arena_.Var("b", Sort::kBool);
};

TEST_F(LiteralBoundsTest, NegatedComparisonsFlipTheBound) {
  // ¬(x < 5) is x ≥ 5; ¬(x ≤ 5) is x ≥ 6.
  EXPECT_TRUE(Conflict({arena_.Not(arena_.Lt(x_, Int(5)))}, {arena_.Lt(x_, Int(5))}));
  EXPECT_FALSE(Conflict({arena_.Not(arena_.Lt(x_, Int(5)))}, {arena_.Le(x_, Int(5))}));
  EXPECT_TRUE(Conflict({arena_.Not(arena_.Le(x_, Int(5)))}, {arena_.Le(x_, Int(5))}));
  EXPECT_FALSE(Conflict({arena_.Not(arena_.Le(x_, Int(5)))}, {arena_.Le(x_, Int(6))}));
}

TEST_F(LiteralBoundsTest, ConstantOnTheLeft) {
  // 3 < x is x ≥ 4; 3 ≤ x is x ≥ 3.
  EXPECT_TRUE(Conflict({arena_.Lt(Int(3), x_)}, {arena_.Le(x_, Int(3))}));
  EXPECT_FALSE(Conflict({arena_.Le(Int(3), x_)}, {arena_.Le(x_, Int(3))}));
  EXPECT_TRUE(Conflict({arena_.Eq(Int(7), x_)}, {arena_.Eq(x_, Int(8))}));
  EXPECT_TRUE(Bounds({arena_.Lt(Int(3), x_), arena_.Lt(x_, Int(4))}).unsat());
}

TEST_F(LiteralBoundsTest, OppositeBooleanLiteralsConflict) {
  EXPECT_TRUE(Conflict({b_}, {arena_.Not(b_)}));
  EXPECT_FALSE(Conflict({b_}, {b_, arena_.Lt(x_, Int(0))}));
  EXPECT_TRUE(Conflict({arena_.And(b_, arena_.Lt(x_, Int(0)))}, {arena_.Not(b_)}));
}

TEST_F(LiteralBoundsTest, Int64ExtremeConstantsAreIgnored) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  LiteralBounds bounds(arena_);
  EXPECT_FALSE(bounds.Add(arena_.Lt(x_, Int(max))));
  EXPECT_FALSE(bounds.Add(arena_.Eq(x_, Int(min))));
  EXPECT_TRUE(bounds.intervals().empty());
  EXPECT_FALSE(bounds.ConflictsWith(Bounds({arena_.Eq(x_, Int(0))})));
}

TEST_F(LiteralBoundsTest, VarVarConflictsAreNotBounds) {
  // x < y and y < x refute each other, but only through a var⋈var literal:
  // that is phase 2's business (or Z3's), so the pair does not conflict here
  // and compare keeps checking it.
  Term y = arena_.Var("y", Sort::kInt);
  EXPECT_FALSE(Conflict({arena_.Lt(x_, y), arena_.Le(Int(0), x_)}, {arena_.Lt(y, x_)}));
  Z3Backend z3(&arena_);
  EXPECT_EQ(z3.CheckAssuming(arena_.And(arena_.Lt(x_, y), arena_.Lt(y, x_))),
            SatResult::kUnsat);
}

// Whenever two literal sets conflict, their conjunction is UNSAT for both the
// pre-solver and Z3 — the pair skip drops nothing a solver could satisfy.
TEST_F(LiteralBoundsTest, ConflictsAreUnsatForPreSolverAndZ3) {
  Z3Backend z3(&arena_);
  IntervalPreSolver presolver(&arena_, &z3, false, false);
  Term ints[3] = {x_, arena_.Var("y", Sort::kInt), arena_.Var("z", Sort::kInt)};
  Term bools[2] = {b_, arena_.Var("c", Sort::kBool)};
  SplitMix64 rng(17);
  auto random_conjunction = [&] {
    std::vector<Term> terms;
    int num_literals = static_cast<int>(rng.NextInRange(1, 5));
    for (int i = 0; i < num_literals; ++i) {
      Term v = ints[rng.NextBelow(3)];
      Term c = Int(rng.NextInRange(-6, 6));
      Term literal;
      switch (rng.NextBelow(6)) {
        case 0: literal = arena_.Lt(v, c); break;
        case 1: literal = arena_.Le(c, v); break;
        case 2: literal = arena_.Eq(v, c); break;
        case 3: literal = arena_.Ne(v, c); break;
        case 4: literal = arena_.Lt(v, ints[rng.NextBelow(3)]); break;
        default: literal = bools[rng.NextBelow(2)]; break;
      }
      terms.push_back(rng.NextChance(1, 4) ? arena_.Not(literal) : literal);
    }
    return terms;
  };
  int conflicts = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<Term> a = random_conjunction();
    std::vector<Term> b = random_conjunction();
    if (!Bounds(a).ConflictsWith(Bounds(b))) continue;
    ++conflicts;
    std::vector<Term> both = a;
    both.insert(both.end(), b.begin(), b.end());
    std::optional<SatResult> decided = presolver.Decide(both);
    ASSERT_TRUE(decided.has_value()) << "round " << round;
    EXPECT_EQ(*decided, SatResult::kUnsat) << "round " << round;
    EXPECT_EQ(z3.CheckAssuming(arena_.AndN(both)), SatResult::kUnsat) << "round " << round;
  }
  EXPECT_GT(conflicts, 50);  // the sweep actually exercised the check
}

}  // namespace
}  // namespace dnsv
