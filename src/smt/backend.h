// The solver-access layer: a pluggable backend interface behind SolverSession.
//
// Solver time dominates verification cost (paper §5.2, Fig. 12), so policies
// that avoid Z3 checks — query caching, interval pre-solving — must be
// pipeline-wide choices rather than per-call accidents. Following the
// counterexample-cache design of KLEE and the pluggable constraint backends
// of S2E, solver access is factored into a stack of SolverBackend layers:
//
//   SolverSession (facade: assert dedupe, stats, config)
//     -> IntervalPreSolver   (optional: decides pure bound/compare queries)
//     -> CachingBackend      (optional: process-wide canonical query cache)
//     -> Z3Backend           (the real solver; timeout + retry-after-reset)
//
// Every layer forwards Push/Pop/Assert downward unconditionally — assertions
// are cheap, checks are the expensive part — and may intercept Check /
// CheckAssuming. GetModel on a layer that answered the last check itself
// replays the query on the layer below, so models (and therefore decoded
// counterexamples) always come from the session's own Z3 solver, byte-
// identical to what an unlayered session would have produced.
#ifndef DNSV_SMT_BACKEND_H_
#define DNSV_SMT_BACKEND_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/smt/term.h"

namespace dnsv {

enum class SatResult { kSat, kUnsat, kUnknown };

// A concrete assignment for the symbolic variables mentioned in a SAT query;
// used to build counterexample DNS queries.
class Model {
 public:
  void Set(const std::string& var, int64_t value) { values_[var] = value; }
  // Returns true and fills *value when the model constrains `var`; unbound
  // variables may take any value.
  bool Get(const std::string& var, int64_t* value) const;
  const std::unordered_map<std::string, int64_t>& values() const { return values_; }
  std::string ToString() const;

 private:
  std::unordered_map<std::string, int64_t> values_;
};

class QueryCache;  // src/smt/query_cache.h

// Which layers sit between the session facade and Z3.
enum class SolverLayering : uint8_t {
  kDirect,         // facade -> Z3 (the reference for shadow validation)
  kCachePresolve,  // facade -> IntervalPreSolver -> CachingBackend -> Z3
};

// Per-session solver policy; carried by VerifyOptions so the whole pipeline
// (explore workers, compare stage, refinement checks, summarization) runs on
// the same backend stack.
struct SolverConfig {
  SolverLayering layering = SolverLayering::kDirect;
  // Double-check every cache hit and presolver verdict against Z3; a
  // disagreement is counted (shadow_mismatches) and Z3's answer wins.
  bool shadow_validate = false;
  // Crash (DNSV_CHECK) on a shadow mismatch instead of counting it: the CI
  // configuration, where a stale-cache bug must fail the build.
  bool shadow_fatal = false;
  // Per-check Z3 timeout in milliseconds; 0 = unlimited. On a timeout the
  // backend resets the Z3 solver, re-asserts the frame stack, and retries
  // the check once with double the budget before reporting kUnknown.
  int check_timeout_ms = 0;
  // Cache instance for kCachePresolve; nullptr selects the
  // process-wide cache shared by all workers and engine versions.
  QueryCache* cache = nullptr;
};

// Applies the DNSV_SOLVER_FORCE environment override to `base`:
//   direct | off | presolve | cache+presolve | shadow
// where "off" is "direct", "presolve" is "cache+presolve", and "shadow" is
// cache+presolve with fatal shadow validation (the CI stale-cache gate).
// Unset leaves `base` untouched; any other value aborts with the list.
SolverConfig ApplySolverEnvOverride(SolverConfig base);

// Counters aggregated across a session's backend stack. `queries` counts
// checks issued to the facade; `z3_checks` counts the subset that reached
// Z3 — the gap is what the cache and the pre-solver saved.
struct SolverStats {
  int64_t queries = 0;
  int64_t z3_checks = 0;
  double solve_seconds = 0;  // wall time spent inside Z3
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Subset of cache_hits answered by entries the artifact store loaded from
  // disk (src/store/qcache_io.h) — the cross-process share of the saving.
  int64_t cache_disk_hits = 0;
  int64_t presolver_discharges = 0;
  int64_t asserts_deduped = 0;   // re-asserts skipped by the facade
  int64_t unknowns = 0;          // kUnknown surfaced to callers
  int64_t timeout_retries = 0;   // Z3 reset-and-retry escalations
  int64_t model_replays = 0;     // GetModel re-ran a cached/presolved query
  int64_t shadow_checks = 0;
  int64_t shadow_mismatches = 0;

  SolverStats& operator+=(const SolverStats& other) {
    queries += other.queries;
    z3_checks += other.z3_checks;
    solve_seconds += other.solve_seconds;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_disk_hits += other.cache_disk_hits;
    presolver_discharges += other.presolver_discharges;
    asserts_deduped += other.asserts_deduped;
    unknowns += other.unknowns;
    timeout_retries += other.timeout_retries;
    model_replays += other.model_replays;
    shadow_checks += other.shadow_checks;
    shadow_mismatches += other.shadow_mismatches;
    return *this;
  }
};

// One layer of the solver stack. Implementations are session-private (never
// shared across threads); only the QueryCache behind CachingBackend is
// process-wide and synchronized.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  virtual void Push() = 0;
  virtual void Pop() = 0;
  virtual void Assert(Term condition) = 0;

  virtual SatResult Check() = 0;
  // Check under an extra temporary assumption (no frame churn).
  virtual SatResult CheckAssuming(Term assumption) = 0;

  // Valid only immediately after a kSat result. Layers that answered the
  // last check without consulting the layer below replay it downward first,
  // so the returned model is always Z3's.
  virtual Model GetModel() = 0;
};

}  // namespace dnsv

#endif  // DNSV_SMT_BACKEND_H_
