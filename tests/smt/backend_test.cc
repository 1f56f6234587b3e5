// Unit tests for the solver-access layer: query canonicalization, the
// process-wide verdict cache, the caching backend's hit/replay behavior, the
// interval pre-solver's decision procedure, and the facade's assert dedupe.
#include <gtest/gtest.h>

#include "src/smt/backend.h"
#include "src/smt/caching_backend.h"
#include "src/smt/canon.h"
#include "src/smt/interval_presolver.h"
#include "src/smt/query_cache.h"
#include "src/smt/solver.h"
#include "src/smt/z3_backend.h"

namespace dnsv {
namespace {

// --- Canonicalization -------------------------------------------------------

TEST(Canon, ConjunctOrderDoesNotMatter) {
  TermArena arena;
  QueryCanonicalizer canon(&arena);
  Term x = arena.Var("x", Sort::kInt);
  Term y = arena.Var("y", Sort::kInt);
  Term a = arena.Lt(x, arena.IntConst(5));
  Term b = arena.Le(arena.IntConst(0), y);
  EXPECT_EQ(canon.CanonicalKey({a, b}), canon.CanonicalKey({b, a}));
}

TEST(Canon, DuplicateConjunctsCollapse) {
  TermArena arena;
  QueryCanonicalizer canon(&arena);
  Term x = arena.Var("x", Sort::kInt);
  Term a = arena.Lt(x, arena.IntConst(5));
  EXPECT_EQ(canon.CanonicalKey({a, a}), canon.CanonicalKey({a}));
}

TEST(Canon, NestedAndFlattens) {
  TermArena arena;
  QueryCanonicalizer canon(&arena);
  Term x = arena.Var("x", Sort::kInt);
  Term y = arena.Var("y", Sort::kInt);
  Term a = arena.Lt(x, arena.IntConst(5));
  Term b = arena.Le(arena.IntConst(0), y);
  EXPECT_EQ(canon.CanonicalKey({arena.And(a, b)}), canon.CanonicalKey({a, b}));
}

TEST(Canon, AlphaEquivalentQueriesShareAKey) {
  // Same shape, different variable names — the keys must collide so the
  // engine workers and the spec workers (whose internal variables differ
  // only by name) share cache entries.
  TermArena arena;
  QueryCanonicalizer canon(&arena);
  Term x = arena.Var("eng!pad.0", Sort::kInt);
  Term y = arena.Var("spec!pad.7", Sort::kInt);
  std::string kx = canon.CanonicalKey({arena.Lt(x, arena.IntConst(5))});
  std::string ky = canon.CanonicalKey({arena.Lt(y, arena.IntConst(5))});
  EXPECT_EQ(kx, ky);
}

TEST(Canon, DifferentSortsDoNotCollide) {
  TermArena arena;
  QueryCanonicalizer canon(&arena);
  Term i = arena.Var("v", Sort::kInt);
  Term b = arena.Var("w", Sort::kBool);
  std::string ki = canon.CanonicalKey({arena.Eq(i, arena.IntConst(0))});
  std::string kb = canon.CanonicalKey({b});
  EXPECT_NE(ki, kb);
}

TEST(Canon, KeysAreStableAcrossArenas) {
  // The cache is shared across workers with unrelated arenas: the same
  // formula built in a different arena (different term ids) must produce the
  // same key.
  TermArena arena1, arena2;
  QueryCanonicalizer canon1(&arena1), canon2(&arena2);
  // Pad arena2 so the ids diverge.
  arena2.Var("unrelated", Sort::kInt);
  arena2.IntConst(12345);
  Term x1 = arena1.Var("qname.0", Sort::kInt);
  Term x2 = arena2.Var("qname.0", Sort::kInt);
  std::string k1 = canon1.CanonicalKey({arena1.Le(x1, arena1.IntConst(9))});
  std::string k2 = canon2.CanonicalKey({arena2.Le(x2, arena2.IntConst(9))});
  EXPECT_EQ(k1, k2);
}

// --- QueryCache -------------------------------------------------------------

TEST(QueryCacheTest, InsertLookupRoundTrip) {
  QueryCache cache;
  SatResult verdict = SatResult::kUnknown;
  EXPECT_FALSE(cache.Lookup("k", &verdict));
  cache.Insert("k", SatResult::kUnsat);
  EXPECT_TRUE(cache.Lookup("k", &verdict));
  EXPECT_EQ(verdict, SatResult::kUnsat);
  QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(QueryCacheTest, UnknownIsNeverCached) {
  QueryCache cache;
  cache.Insert("k", SatResult::kUnknown);
  SatResult verdict = SatResult::kSat;
  EXPECT_FALSE(cache.Lookup("k", &verdict));
}

TEST(QueryCacheTest, ClearDropsEverything) {
  QueryCache cache;
  cache.Insert("k", SatResult::kSat);
  cache.Clear();
  SatResult verdict = SatResult::kUnknown;
  EXPECT_FALSE(cache.Lookup("k", &verdict));
  EXPECT_EQ(cache.stats().entries, 0);
}

// --- CachingBackend ---------------------------------------------------------

TEST(CachingBackendTest, SecondIdenticalCheckHitsTheCache) {
  TermArena arena;
  QueryCache cache;
  Z3Backend z3(&arena);
  CachingBackend caching(&arena, &z3, &cache, /*shadow_validate=*/false,
                         /*shadow_fatal=*/false);
  Term x = arena.Var("x", Sort::kInt);
  caching.Assert(arena.Lt(x, arena.IntConst(10)));
  EXPECT_EQ(caching.CheckAssuming(arena.Lt(arena.IntConst(3), x)), SatResult::kSat);
  int64_t checks_after_first = z3.num_checks();
  EXPECT_EQ(caching.CheckAssuming(arena.Lt(arena.IntConst(3), x)), SatResult::kSat);
  EXPECT_EQ(z3.num_checks(), checks_after_first);  // served from the cache
  EXPECT_EQ(caching.cache_hits(), 1);
  EXPECT_EQ(caching.cache_misses(), 1);
}

TEST(CachingBackendTest, CacheSharedAcrossSessionsWithDifferentArenas) {
  QueryCache cache;
  auto run = [&cache](const char* pad_var) {
    TermArena arena;
    arena.Var(pad_var, Sort::kInt);  // desynchronize term ids
    Z3Backend z3(&arena);
    CachingBackend caching(&arena, &z3, &cache, false, false);
    Term q = arena.Var("qtype", Sort::kInt);
    caching.Assert(arena.Le(arena.IntConst(1), q));
    return caching.CheckAssuming(arena.Le(q, arena.IntConst(255)));
  };
  EXPECT_EQ(run("a"), SatResult::kSat);
  EXPECT_EQ(run("completely.different"), SatResult::kSat);
  EXPECT_EQ(cache.stats().hits, 1);  // second session reused the first's work
}

TEST(CachingBackendTest, GetModelAfterHitReplaysOnInner) {
  TermArena arena;
  QueryCache cache;
  Z3Backend z3(&arena);
  CachingBackend caching(&arena, &z3, &cache, false, false);
  Term x = arena.Var("x", Sort::kInt);
  Term q = arena.Eq(x, arena.IntConst(42));
  ASSERT_EQ(caching.CheckAssuming(q), SatResult::kSat);
  ASSERT_EQ(caching.CheckAssuming(q), SatResult::kSat);  // cache hit
  Model model = caching.GetModel();
  EXPECT_EQ(caching.model_replays(), 1);
  int64_t value = 0;
  ASSERT_TRUE(model.Get("x", &value));
  EXPECT_EQ(value, 42);
}

TEST(CachingBackendTest, PopInvalidatesFrameLocalEntries) {
  // The key covers the whole frame stack, so a query under a pushed frame
  // must not collide with the same assumption after the pop.
  TermArena arena;
  QueryCache cache;
  Z3Backend z3(&arena);
  CachingBackend caching(&arena, &z3, &cache, false, false);
  Term x = arena.Var("x", Sort::kInt);
  caching.Push();
  caching.Assert(arena.Lt(x, arena.IntConst(0)));
  EXPECT_EQ(caching.CheckAssuming(arena.Lt(arena.IntConst(5), x)), SatResult::kUnsat);
  caching.Pop();
  EXPECT_EQ(caching.CheckAssuming(arena.Lt(arena.IntConst(5), x)), SatResult::kSat);
}

// --- IntervalPreSolver ------------------------------------------------------

class PreSolverTest : public ::testing::Test {
 protected:
  PreSolverTest() : z3_(&arena_), presolver_(&arena_, &z3_, false, false) {}
  Term Int(int64_t v) { return arena_.IntConst(v); }
  Term Var(const char* name) { return arena_.Var(name, Sort::kInt); }

  TermArena arena_;
  Z3Backend z3_;
  IntervalPreSolver presolver_;
};

TEST_F(PreSolverTest, DecidesSimpleBounds) {
  Term x = Var("x");
  auto sat = presolver_.Decide({arena_.Le(Int(0), x), arena_.Lt(x, Int(10))});
  ASSERT_TRUE(sat.has_value());
  EXPECT_EQ(*sat, SatResult::kSat);
  auto unsat = presolver_.Decide({arena_.Lt(x, Int(0)), arena_.Lt(Int(5), x)});
  ASSERT_TRUE(unsat.has_value());
  EXPECT_EQ(*unsat, SatResult::kUnsat);
}

TEST_F(PreSolverTest, NegatedComparisonsNormalize) {
  Term x = Var("x");
  // ¬(x < 5) ∧ x < 5  is unsat.
  auto verdict =
      presolver_.Decide({arena_.Not(arena_.Lt(x, Int(5))), arena_.Lt(x, Int(5))});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kUnsat);
}

TEST_F(PreSolverTest, ExclusionsExhaustAFiniteInterval) {
  Term x = Var("x");
  std::vector<Term> terms = {arena_.Le(Int(0), x), arena_.Le(x, Int(2)),
                             arena_.Ne(x, Int(0)), arena_.Ne(x, Int(1)),
                             arena_.Ne(x, Int(2))};
  auto verdict = presolver_.Decide(terms);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kUnsat);
  terms.pop_back();  // x == 2 remains possible
  verdict = presolver_.Decide(terms);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kSat);
}

TEST_F(PreSolverTest, VarVarComparisonsUseIntervals) {
  Term x = Var("x");
  Term y = Var("y");
  // x in [0,5], y in [10,20]  =>  x < y is provably true.
  std::vector<Term> base = {arena_.Le(Int(0), x), arena_.Le(x, Int(5)),
                            arena_.Le(Int(10), y), arena_.Le(y, Int(20))};
  std::vector<Term> sat_query = base;
  sat_query.push_back(arena_.Lt(x, y));
  auto verdict = presolver_.Decide(sat_query);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kSat);
  std::vector<Term> unsat_query = base;
  unsat_query.push_back(arena_.Lt(y, x));
  verdict = presolver_.Decide(unsat_query);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kUnsat);
}

TEST_F(PreSolverTest, ArithmeticAtomsEvaluate) {
  Term x = Var("x");
  // x in [0,5]  =>  x + 1 <= 10 is provably true.
  auto verdict = presolver_.Decide({arena_.Le(Int(0), x), arena_.Le(x, Int(5)),
                                    arena_.Le(arena_.Add(x, Int(1)), Int(10))});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kSat);
}

TEST_F(PreSolverTest, BailsOnUndecidedOverlap) {
  Term x = Var("x");
  Term y = Var("y");
  // Overlapping intervals: x < y is neither provably true nor false.
  auto verdict = presolver_.Decide({arena_.Le(Int(0), x), arena_.Le(x, Int(10)),
                                    arena_.Le(Int(5), y), arena_.Le(y, Int(15)),
                                    arena_.Lt(x, y)});
  EXPECT_FALSE(verdict.has_value());
}

TEST_F(PreSolverTest, BailsOutsideTheFragment) {
  Term x = Var("x");
  Term y = Var("y");
  auto with_or = presolver_.Decide(
      {arena_.Or(arena_.Lt(x, Int(0)), arena_.Lt(Int(5), x))});
  EXPECT_FALSE(with_or.has_value());
  auto with_div = presolver_.Decide({arena_.Eq(arena_.Div(x, y), Int(2))});
  EXPECT_FALSE(with_div.has_value());
}

TEST_F(PreSolverTest, BoolLiteralsForceAndConflict) {
  Term b = arena_.Var("b", Sort::kBool);
  auto verdict = presolver_.Decide({b, arena_.Not(b)});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kUnsat);
  verdict = presolver_.Decide({b});
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, SatResult::kSat);
}

TEST_F(PreSolverTest, DischargedSatStillYieldsAZ3Model) {
  Term x = Var("x");
  presolver_.Assert(arena_.Le(Int(3), x));
  presolver_.Assert(arena_.Le(x, Int(3)));
  ASSERT_EQ(presolver_.Check(), SatResult::kSat);
  EXPECT_EQ(presolver_.discharges(), 1);
  EXPECT_EQ(z3_.num_checks(), 0);  // Z3 untouched so far
  Model model = presolver_.GetModel();
  EXPECT_EQ(z3_.num_checks(), 1);  // the replay
  int64_t value = 0;
  ASSERT_TRUE(model.Get("x", &value));
  EXPECT_EQ(value, 3);
}

TEST_F(PreSolverTest, AgreesWithZ3OnRandomBoundQueries) {
  // Cross-validation sweep: every decided verdict must match Z3's.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  int decided = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Term> terms;
    Term vars[2] = {Var("x"), Var("y")};
    int num_literals = 1 + static_cast<int>(next() % 4);
    for (int i = 0; i < num_literals; ++i) {
      Term v = vars[next() % 2];
      int64_t c = static_cast<int64_t>(next() % 21) - 10;
      switch (next() % 4) {
        case 0: terms.push_back(arena_.Lt(v, Int(c))); break;
        case 1: terms.push_back(arena_.Le(Int(c), v)); break;
        case 2: terms.push_back(arena_.Eq(v, Int(c))); break;
        default: terms.push_back(arena_.Ne(v, Int(c))); break;
      }
    }
    auto verdict = presolver_.Decide(terms);
    if (!verdict.has_value()) continue;
    ++decided;
    SatResult truth = z3_.CheckAssuming(arena_.AndN(terms));
    EXPECT_EQ(*verdict, truth) << "round " << round;
  }
  EXPECT_GT(decided, 100);  // the sweep actually exercised the decider
}

// --- SolverSession facade ---------------------------------------------------

TEST(SolverFacade, DedupesRepeatedAsserts) {
  TermArena arena;
  SolverSession solver(&arena);
  Term x = arena.Var("x", Sort::kInt);
  Term c = arena.Lt(x, arena.IntConst(5));
  solver.Assert(c);
  solver.Assert(c);  // same term id: skipped
  solver.Push();
  solver.Assert(c);  // still on the stack: skipped
  EXPECT_EQ(solver.stats().asserts_deduped, 2);
  solver.Pop();
  solver.Push();
  solver.Assert(c);  // outer frame still holds it: skipped
  EXPECT_EQ(solver.stats().asserts_deduped, 3);
  EXPECT_EQ(solver.Check(), SatResult::kSat);
}

TEST(SolverFacade, PopReenablesAssertsFromDeadFrames) {
  TermArena arena;
  SolverSession solver(&arena);
  Term x = arena.Var("x", Sort::kInt);
  Term c = arena.Lt(x, arena.IntConst(0));
  solver.Push();
  solver.Assert(c);
  solver.Pop();
  solver.Assert(c);  // frame died: must actually re-assert
  EXPECT_EQ(solver.stats().asserts_deduped, 0);
  EXPECT_EQ(solver.CheckAssuming(arena.Lt(arena.IntConst(5), x)), SatResult::kUnsat);
}

TEST(SolverFacade, LayeredStackCountsEveryLayer) {
  TermArena arena;
  QueryCache cache;
  SolverConfig config;
  config.layering = SolverLayering::kCachePresolve;
  config.cache = &cache;
  SolverSession solver(&arena, config);
  Term x = arena.Var("x", Sort::kInt);
  solver.Assert(arena.Le(arena.IntConst(0), x));
  // Pure bound query: discharged by the pre-solver, Z3 never runs.
  EXPECT_EQ(solver.CheckAssuming(arena.Lt(x, arena.IntConst(10))), SatResult::kSat);
  SolverStats stats = solver.stats();
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.presolver_discharges, 1);
  EXPECT_EQ(stats.z3_checks, 0);
  // Division falls through the pre-solver to the cache, then Z3.
  Term y = arena.Var("y", Sort::kInt);
  Term div_query = arena.Eq(arena.Div(y, arena.IntConst(2)), arena.IntConst(3));
  EXPECT_EQ(solver.CheckAssuming(div_query), SatResult::kSat);
  EXPECT_EQ(solver.CheckAssuming(div_query), SatResult::kSat);  // cache hit
  stats = solver.stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.z3_checks, 1);
}

TEST(SolverFacade, ShadowValidationAgreesOnLayeredVerdicts) {
  TermArena arena;
  QueryCache cache;
  SolverConfig config;
  config.layering = SolverLayering::kCachePresolve;
  config.cache = &cache;
  config.shadow_validate = true;
  config.shadow_fatal = true;  // a mismatch would crash the test
  SolverSession solver(&arena, config);
  Term x = arena.Var("x", Sort::kInt);
  solver.Assert(arena.Le(arena.IntConst(0), x));
  EXPECT_EQ(solver.CheckAssuming(arena.Lt(x, arena.IntConst(10))), SatResult::kSat);
  EXPECT_EQ(solver.CheckAssuming(arena.Lt(x, arena.IntConst(0))), SatResult::kUnsat);
  SolverStats stats = solver.stats();
  EXPECT_GT(stats.shadow_checks, 0);
  EXPECT_EQ(stats.shadow_mismatches, 0);
}

TEST(SolverFacade, EnvOverrideParses) {
  SolverConfig base;
  ASSERT_EQ(setenv("DNSV_SOLVER_FORCE", "shadow", 1), 0);
  SolverConfig forced = ApplySolverEnvOverride(base);
  EXPECT_EQ(forced.layering, SolverLayering::kCachePresolve);
  EXPECT_TRUE(forced.shadow_validate);
  EXPECT_TRUE(forced.shadow_fatal);
  ASSERT_EQ(setenv("DNSV_SOLVER_FORCE", "direct", 1), 0);
  forced = ApplySolverEnvOverride(forced);
  EXPECT_EQ(forced.layering, SolverLayering::kDirect);
  unsetenv("DNSV_SOLVER_FORCE");
  SolverConfig untouched = ApplySolverEnvOverride(base);
  EXPECT_EQ(untouched.layering, base.layering);
  // A value outside the list — the removed cache-only layering, a typo of
  // the CI gate's mode, an empty assignment — must stop the run, not fall
  // back to the default stack.
  for (const char* value : {"cache", "shaddow", ""}) {
    SCOPED_TRACE(value);
    ASSERT_EQ(setenv("DNSV_SOLVER_FORCE", value, 1), 0);
    EXPECT_DEATH(ApplySolverEnvOverride(base), "direct\\|off\\|presolve\\|cache\\+presolve\\|shadow");
  }
  unsetenv("DNSV_SOLVER_FORCE");
}

}  // namespace
}  // namespace dnsv
