// The bottom of the solver stack: an incremental Z3 session over TermArena
// terms. This is the code that used to live inside SolverSession, moved
// behind the SolverBackend interface so caching and pre-solving layers can
// stack in front of it. Translation from Term to Z3 ASTs is memoized per
// backend (the z3::context outlives solver resets).
//
// The backend is lazy. Until the first check (or GetModel) reaches it,
// Push/Pop/Assert only record the frame stack; no z3::context exists yet.
// The first check builds the context and solver and replays the live frames
// — popped frames are gone, so they never reach Z3 — and from then on every
// call is forwarded eagerly. A session whose checks the pre-solver and the
// query cache all answer never builds Z3 state at all.
#ifndef DNSV_SMT_Z3_BACKEND_H_
#define DNSV_SMT_Z3_BACKEND_H_

#include <memory>
#include <vector>

#include "src/smt/backend.h"

namespace dnsv {

class Z3Backend : public SolverBackend {
 public:
  // `check_timeout_ms` == 0 disables the per-check timeout. With a timeout,
  // a check that comes back unknown resets the Z3 solver (fresh solver
  // object, same context, frame stack re-asserted) and retries once with
  // double the budget — Z3's internal state occasionally wedges on a query
  // a fresh solver dispatches instantly.
  explicit Z3Backend(TermArena* arena, int check_timeout_ms = 0);
  ~Z3Backend() override;
  Z3Backend(const Z3Backend&) = delete;
  Z3Backend& operator=(const Z3Backend&) = delete;

  void Push() override;
  void Pop() override;
  void Assert(Term condition) override;
  SatResult Check() override;
  SatResult CheckAssuming(Term assumption) override;
  Model GetModel() override;

  int64_t num_checks() const { return num_checks_; }
  double solve_seconds() const { return solve_seconds_; }
  int64_t unknowns() const { return unknowns_; }
  int64_t timeout_retries() const { return timeout_retries_; }

  // Process-wide count of checks that reached Z3, across every backend
  // instance on every thread. The ground truth the incremental-verification
  // gates assert against ("warm re-run performed zero new Z3 checks"): this
  // counter cannot be fooled by per-session accounting.
  static int64_t TotalChecks();
  // Process-wide count of z3::contexts built, i.e. of backends that reached
  // Z3 at all.
  static int64_t TotalContexts();

 private:
  struct Impl;  // hides z3++.h from the rest of the codebase

  // `assumption` may be invalid (plain Check).
  SatResult RunCheck(Term assumption);
  // Builds the Z3 state on first use, replaying the live frames into it.
  Impl& Materialize();

  TermArena* arena_;
  std::unique_ptr<Impl> impl_;  // null until the first check or GetModel
  // The asserted terms, frame by frame (frames_[0] is the base frame): the
  // session's whole solver state before Z3 is built, and afterwards what a
  // solver reset after a timeout re-asserts.
  std::vector<std::vector<Term>> frames_ = {{}};
  int check_timeout_ms_ = 0;
  int64_t num_checks_ = 0;
  double solve_seconds_ = 0;
  int64_t unknowns_ = 0;
  int64_t timeout_retries_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_SMT_Z3_BACKEND_H_
