// SolverSession: thin facade over the solver-backend stack (src/smt/backend.h).
//
// The symbolic executor drives this with push/pop following its depth-first
// path exploration, exactly as DNS-V's verifier drives Z3 per branch (§5.2).
// Which layers sit between the facade and Z3 — query cache, interval
// pre-solver — is chosen by the SolverConfig carried in VerifyOptions; the
// default is the historical direct-to-Z3 behavior. The facade itself owns one
// always-on optimization: a term already asserted on the current frame stack
// is not re-asserted (hash-consing makes the check a set lookup on term ids).
// A session is cheap until a check reaches Z3: the Z3 backend builds its
// context only then (z3_backend.h), so a session the pre-solver and the
// query cache fully answer never touches Z3.
#ifndef DNSV_SMT_SOLVER_H_
#define DNSV_SMT_SOLVER_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/smt/backend.h"
#include "src/smt/term.h"

namespace dnsv {

class Z3Backend;
class CachingBackend;
class IntervalPreSolver;

// Create one per verification task; the arena must outlive the session.
// Sessions are single-threaded; parallel workers each own one.
class SolverSession {
 public:
  explicit SolverSession(TermArena* arena, SolverConfig config = {});
  ~SolverSession();
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  void Push();
  void Pop();
  void Assert(Term condition);

  SatResult Check();
  // Check under an extra temporary assumption (no frame churn).
  SatResult CheckAssuming(Term assumption);

  // Valid only immediately after a kSat result. Always Z3's own model, even
  // when the verdict came from the cache or the pre-solver (backend.h).
  Model GetModel();

  // Statistics for the Fig.-12 harness: checks that actually reached Z3 and
  // wall time spent inside it. With layering off this equals the number of
  // Check/CheckAssuming calls, as it always did.
  int64_t num_checks() const;
  double solve_seconds() const;

  // Full solver-layer counters aggregated across the stack.
  SolverStats stats() const;

  const SolverConfig& config() const { return config_; }

 private:
  SolverConfig config_;
  TermArena* arena_;

  // The stack, bottom to top; top_ points at the outermost layer.
  std::unique_ptr<Z3Backend> z3_;
  std::unique_ptr<CachingBackend> caching_;
  std::unique_ptr<IntervalPreSolver> presolver_;
  SolverBackend* top_ = nullptr;

  // Assert dedupe: ids of terms asserted on the current frame stack.
  std::vector<std::vector<uint32_t>> assert_frames_ = {{}};
  std::unordered_set<uint32_t> asserted_;

  int64_t queries_ = 0;
  int64_t unknowns_ = 0;
  int64_t asserts_deduped_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_SMT_SOLVER_H_
