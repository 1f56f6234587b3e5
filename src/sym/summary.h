// Automated summarization of specifications (paper §4.2, §5.3).
//
// A summary is the set of input-effect pairs {(θ_k, f_k)} of a module,
// computed by full-path symbolic execution with named symbolic placeholders
// for the module's inputs:
//   - int/bool parameters        -> fresh variables
//   - []int parameters           -> symbolic lists (elements + length vars)
//   - "concrete" parameters      -> the caller's actual values, baked in
//                                   (the in-heap domain tree, flags, …);
//                                   summaries are cached per concrete binding
//   - out-parameters (*Struct)   -> placeholder blocks: scalar fields become
//                                   fresh variables; list and pointer fields
//                                   are assumed empty/null at entry (checked
//                                   when the summary is applied)
// Effects follow the paper's supported patterns exactly: writes to struct
// fields reachable from out-parameters, appends to list fields, and the
// return value. Anything else (fresh objects escaping, writes to the shared
// heap) aborts summarization and the verifier falls back to inlining that
// module.
#ifndef DNSV_SYM_SUMMARY_H_
#define DNSV_SYM_SUMMARY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sym/executor.h"

namespace dnsv {

enum class ParamMode : uint8_t {
  kConcrete,        // baked into the summary; cache key component
  kSymbolicInt,     // fresh int variable
  kSymbolicIntList, // symbolic []int (qname-style)
  kOutStruct,       // pointer to a result struct (placeholder fields)
};

// Per-function interface configuration (the paper's "interface config",
// Table 3 row 3): how each parameter participates in summarization.
struct FunctionInterface {
  std::string function;
  std::vector<ParamMode> params;
};

// One (θ_k, f_k) pair.
struct SummaryEntry {
  Term condition;                   // θ_k over the summary's input variables
  bool panics = false;
  std::string panic_message;
  SymValue return_value;            // substituted at application time
  // Field writes: (param index, field index) -> new value. List-field
  // updates are plain writes: out-parameter list fields are assumed empty at
  // entry (validated at application time), so the final list value is the
  // whole effect.
  struct FieldWrite {
    size_t param;
    size_t field;
    SymValue value;
  };
  std::vector<FieldWrite> writes;
};

struct FunctionSummary {
  std::string function;
  std::vector<ParamMode> modes;
  std::vector<SymValue> placeholder_args;  // as used during computation
  // For kOutStruct params: the placeholder struct whose field variables /
  // list tokens get rebound to the caller's actual state at application.
  std::vector<std::pair<size_t, SymValue>> out_placeholders;
  std::vector<SummaryEntry> entries;
  double compute_seconds = 0;
  int64_t instrs = 0;
};

// Computes and caches summaries lazily at call sites; plugs into SymExecutor
// as its SummaryProvider.
class Summarizer : public SummaryProvider {
 public:
  // `base_heap` is the shared concrete heap (the domain tree); summaries are
  // computed against a fresh copy of it plus placeholder out-blocks, which
  // keeps them reusable across call sites. Any store into the base heap
  // during summarization is a stateless-engine violation and aborts the
  // summary.
  Summarizer(const Module* module, TermArena* arena, SolverSession* solver,
             SymMemory base_heap, int symbolic_list_capacity, int64_t max_label_code);

  void Configure(FunctionInterface interface_config);
  bool IsConfigured(const std::string& function) const;

  // SummaryProvider:
  std::optional<std::vector<Application>> TryApply(const std::string& callee,
                                                   const std::vector<SymValue>& args,
                                                   const SymState& state) override;

  // Forces computation (used by the Fig.-12 per-layer timing harness and the
  // Table-1 path enumeration). Returns nullptr when the function does not
  // summarize cleanly.
  const FunctionSummary* GetOrCompute(const std::string& callee,
                                      const std::vector<SymValue>& concrete_args);

  struct Stats {
    int64_t summaries_computed = 0;
    int64_t summaries_failed = 0;
    int64_t entries_total = 0;
    int64_t applications = 0;
    int64_t cache_hits = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  std::string CacheKey(const std::string& callee, const std::vector<SymValue>& args,
                       const std::vector<ParamMode>& modes) const;
  // nullptr on failure (cached as failure too).
  const FunctionSummary* Compute(const std::string& callee,
                                 const std::vector<SymValue>& args,
                                 const std::vector<ParamMode>& modes);
  // Rewrites a summary value into the caller's domain by substituting the
  // summary's input variables with the caller's terms.
  SymValue SubstituteValue(const SymValue& value,
                           const std::unordered_map<uint32_t, Term>& subst);

  const Module* module_;
  TermArena* arena_;
  SolverSession* solver_;
  SymMemory base_heap_;
  size_t heap_floor_;
  int list_capacity_;
  int64_t max_label_code_;
  std::unordered_map<std::string, FunctionInterface> interfaces_;
  std::map<std::string, std::unique_ptr<FunctionSummary>> cache_;  // key -> summary (null=failed)
  std::map<std::string, bool> failed_;
  Stats stats_;
  int64_t summary_counter_ = 0;
  int64_t apply_counter_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_SYM_SUMMARY_H_
