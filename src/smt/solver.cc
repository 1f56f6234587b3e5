#include "src/smt/solver.h"

#include <algorithm>
#include <vector>

#include "src/smt/caching_backend.h"
#include "src/smt/interval_presolver.h"
#include "src/smt/query_cache.h"
#include "src/smt/z3_backend.h"
#include "src/support/strings.h"

namespace dnsv {

bool Model::Get(const std::string& var, int64_t* value) const {
  auto it = values_.find(var);
  if (it == values_.end()) {
    return false;
  }
  *value = it->second;
  return true;
}

std::string Model::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    parts.push_back(StrCat(name, "=", value));
  }
  std::sort(parts.begin(), parts.end());
  return JoinStrings(parts, " ");
}

SolverSession::SolverSession(TermArena* arena, SolverConfig config)
    : config_(config), arena_(arena) {
  z3_ = std::make_unique<Z3Backend>(arena, config_.check_timeout_ms);
  top_ = z3_.get();
  if (config_.layering == SolverLayering::kCachePresolve) {
    QueryCache* cache = config_.cache != nullptr ? config_.cache : QueryCache::Global();
    caching_ = std::make_unique<CachingBackend>(arena, top_, cache, config_.shadow_validate,
                                                config_.shadow_fatal);
    top_ = caching_.get();
    presolver_ = std::make_unique<IntervalPreSolver>(arena, top_, config_.shadow_validate,
                                                     config_.shadow_fatal);
    top_ = presolver_.get();
  }
}

SolverSession::~SolverSession() = default;

void SolverSession::Push() {
  assert_frames_.emplace_back();
  top_->Push();
}

void SolverSession::Pop() {
  DNSV_CHECK(assert_frames_.size() > 1);
  for (uint32_t id : assert_frames_.back()) {
    asserted_.erase(id);
  }
  assert_frames_.pop_back();
  top_->Pop();
}

void SolverSession::Assert(Term condition) {
  DNSV_CHECK(arena_->sort(condition) == Sort::kBool);
  bool value = false;
  if (arena_->AsBoolConst(condition, &value) && value) {
    return;  // asserting literal true is a no-op at every layer
  }
  if (asserted_.count(condition.id()) != 0) {
    // Hash-consing makes structural equality an id comparison: this exact
    // term is already on the frame stack, so re-asserting it cannot change
    // any verdict.
    ++asserts_deduped_;
    return;
  }
  asserted_.insert(condition.id());
  assert_frames_.back().push_back(condition.id());
  top_->Assert(condition);
}

SatResult SolverSession::Check() {
  ++queries_;
  SatResult result = top_->Check();
  if (result == SatResult::kUnknown) ++unknowns_;
  return result;
}

SatResult SolverSession::CheckAssuming(Term assumption) {
  ++queries_;
  SatResult result = top_->CheckAssuming(assumption);
  if (result == SatResult::kUnknown) ++unknowns_;
  return result;
}

Model SolverSession::GetModel() { return top_->GetModel(); }

int64_t SolverSession::num_checks() const { return z3_->num_checks(); }

double SolverSession::solve_seconds() const { return z3_->solve_seconds(); }

SolverStats SolverSession::stats() const {
  SolverStats s;
  s.queries = queries_;
  s.z3_checks = z3_->num_checks();
  s.solve_seconds = z3_->solve_seconds();
  s.unknowns = unknowns_;
  s.timeout_retries = z3_->timeout_retries();
  s.asserts_deduped = asserts_deduped_;
  if (caching_ != nullptr) {
    s.cache_hits = caching_->cache_hits();
    s.cache_misses = caching_->cache_misses();
    s.cache_disk_hits = caching_->cache_disk_hits();
    s.model_replays = caching_->model_replays();
    s.shadow_checks += caching_->shadow_checks();
    s.shadow_mismatches += caching_->shadow_mismatches();
  }
  if (presolver_ != nullptr) {
    s.presolver_discharges = presolver_->discharges();
    s.shadow_checks += presolver_->shadow_checks();
    s.shadow_mismatches += presolver_->shadow_mismatches();
  }
  return s;
}

}  // namespace dnsv
