#include "src/sym/summary.h"

#include "src/sym/refine.h"
#include "src/support/status.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

// Serializes a value for the summary cache key (concrete parameters only).
std::string ValueKey(const SymValue& value, const TermArena& arena) {
  return value.ToString(arena);
}

// True when `value` contains a pointer into blocks allocated during the
// summary run (>= floor): such values cannot be relocated to a caller.
bool ContainsEscapingPtr(const SymValue& value, size_t floor) {
  if (value.kind == SymValue::Kind::kPtr && !value.IsNullPtr() && value.block >= floor) {
    return true;
  }
  for (const SymValue& elem : value.elems) {
    if (ContainsEscapingPtr(elem, floor)) {
      return true;
    }
  }
  return false;
}

// True when `value` contains any symbolic variable.
bool ContainsVars(const SymValue& value, const TermArena& arena) {
  if (value.kind == SymValue::Kind::kTerm) {
    int64_t iv;
    bool bv;
    if (!arena.AsIntConst(value.term, &iv) && !arena.AsBoolConst(value.term, &bv)) {
      return true;  // any non-constant term counts
    }
  }
  if (value.kind == SymValue::Kind::kList) {
    int64_t len;
    if (!arena.AsIntConst(value.list_len, &len)) {
      return true;
    }
  }
  for (const SymValue& elem : value.elems) {
    if (ContainsVars(elem, arena)) {
      return true;
    }
  }
  return false;
}

}  // namespace

Summarizer::Summarizer(const Module* module, TermArena* arena, SolverSession* solver,
                       SymMemory base_heap, int symbolic_list_capacity,
                       int64_t max_label_code)
    : module_(module),
      arena_(arena),
      solver_(solver),
      base_heap_(std::move(base_heap)),
      heap_floor_(base_heap_.num_blocks()),
      list_capacity_(symbolic_list_capacity),
      max_label_code_(max_label_code) {}

void Summarizer::Configure(FunctionInterface interface_config) {
  interfaces_[interface_config.function] = std::move(interface_config);
}

bool Summarizer::IsConfigured(const std::string& function) const {
  return interfaces_.count(function) != 0;
}

std::string Summarizer::CacheKey(const std::string& callee, const std::vector<SymValue>& args,
                                 const std::vector<ParamMode>& modes) const {
  std::string key = callee;
  for (size_t i = 0; i < args.size(); ++i) {
    if (modes[i] == ParamMode::kConcrete) {
      key += "|" + ValueKey(args[i], *arena_);
    }
  }
  return key;
}

const FunctionSummary* Summarizer::GetOrCompute(const std::string& callee,
                                                const std::vector<SymValue>& args) {
  auto iface = interfaces_.find(callee);
  if (iface == interfaces_.end()) {
    return nullptr;
  }
  const std::vector<ParamMode>& modes = iface->second.params;
  if (modes.size() != args.size()) {
    return nullptr;
  }
  std::string key = CacheKey(callee, args, modes);
  auto cached = cache_.find(key);
  if (cached != cache_.end()) {
    ++stats_.cache_hits;
    return cached->second.get();
  }
  if (failed_.count(key) != 0) {
    return nullptr;
  }
  const FunctionSummary* summary = Compute(callee, args, modes);
  if (summary == nullptr) {
    failed_[key] = true;
    ++stats_.summaries_failed;
  }
  return summary;
}

const FunctionSummary* Summarizer::Compute(const std::string& callee,
                                           const std::vector<SymValue>& args,
                                           const std::vector<ParamMode>& modes) {
  const Function* fn = module_->GetFunction(callee);
  if (fn == nullptr) {
    return nullptr;
  }
  double start = ElapsedSeconds();
  int64_t id = summary_counter_++;

  // Canonical summary state: the shared concrete heap plus placeholder
  // blocks for out-parameters.
  SymState state;
  state.memory = base_heap_;
  state.pc = arena_->True();
  std::vector<Term> constraints;
  std::vector<SymValue> placeholder_args(args.size());
  std::vector<std::pair<size_t, SymValue>> out_placeholders;  // param -> struct
  struct OutInfo {
    size_t param;
    BlockIndex block;
  };
  std::vector<OutInfo> outs;

  const TypeTable& types = module_->types();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string prefix = StrCat("s", id, ".p", i);
    switch (modes[i]) {
      case ParamMode::kConcrete:
        placeholder_args[i] = args[i];
        break;
      case ParamMode::kSymbolicInt: {
        placeholder_args[i] = SymValue::OfTerm(arena_->Var(prefix, Sort::kInt));
        break;
      }
      case ParamMode::kSymbolicIntList: {
        SymbolicIntList sym =
            MakeSymbolicIntList(arena_, prefix, list_capacity_, 0, max_label_code_);
        placeholder_args[i] = sym.value;
        constraints.push_back(sym.constraints);
        break;
      }
      case ParamMode::kOutStruct: {
        Type param_type = fn->params()[i].type;
        if (!types.IsPtr(param_type) || !types.IsStruct(types.Pointee(param_type))) {
          return nullptr;
        }
        const StructDef& def = types.GetStruct(types.Pointee(param_type));
        std::vector<SymValue> fields;
        for (size_t f = 0; f < def.fields.size(); ++f) {
          Type field_type = def.fields[f].type;
          const std::string field_prefix = StrCat(prefix, ".f", f);
          switch (types.kind(field_type)) {
            case TypeKind::kInt:
              fields.push_back(SymValue::OfTerm(arena_->Var(field_prefix, Sort::kInt)));
              break;
            case TypeKind::kBool:
              fields.push_back(SymValue::OfTerm(arena_->Var(field_prefix, Sort::kBool)));
              break;
            case TypeKind::kPtr:
              // Pointer placeholders are impossible (pointers are concrete);
              // assume null and validate the assumption at application time.
              fields.push_back(SymValue::NullPtr());
              break;
            case TypeKind::kList:
              // List fields are assumed empty at entry; the application site
              // validates this assumption against the caller's actual state.
              fields.push_back(SymValue::List({}, arena_));
              break;
            default:
              return nullptr;  // nested struct fields unsupported
          }
        }
        SymValue placeholder = SymValue::Struct(std::move(fields));
        out_placeholders.emplace_back(i, placeholder);
        BlockIndex block = state.memory.Alloc(std::move(placeholder));
        outs.push_back({i, block});
        placeholder_args[i] = SymValue::Ptr(block);
        break;
      }
    }
  }
  state.pc = arena_->AndN({state.pc, arena_->AndN(constraints)});

  // Full-path symbolic execution of the module (callees inlined).
  SymExecutor executor(module_, arena_, solver_, ExecLimits{});
  std::vector<PathOutcome> outcomes;
  try {
    outcomes = executor.Explore(*fn, placeholder_args, state);
  } catch (const DnsvError& e) {
    DNSV_LOG(kWarning) << "summarization of " << callee << " aborted: " << e.what();
    return nullptr;
  }

  auto summary = std::make_unique<FunctionSummary>();
  summary->function = callee;
  summary->modes = modes;
  summary->placeholder_args = placeholder_args;
  summary->out_placeholders = std::move(out_placeholders);
  summary->instrs = executor.stats().instrs;

  size_t escape_floor = state.memory.num_blocks();
  for (PathOutcome& outcome : outcomes) {
    SummaryEntry entry;
    entry.condition = outcome.state.pc;
    if (outcome.kind == PathOutcome::Kind::kPanicked) {
      entry.panics = true;
      entry.panic_message = outcome.panic_message;
      summary->entries.push_back(std::move(entry));
      continue;
    }
    if (ContainsEscapingPtr(outcome.return_value, escape_floor)) {
      DNSV_LOG(kWarning) << "summarization of " << callee
                         << " aborted: return value escapes a fresh allocation";
      return nullptr;
    }
    entry.return_value = outcome.return_value;
    // Stateless check: the shared heap must be untouched (paper §9). A block
    // no store reached is still the base heap's node.
    for (BlockIndex b = 1; b < heap_floor_; ++b) {
      const SymValue* before = base_heap_.Resolve(b, {});
      const SymValue* after = outcome.state.memory.Resolve(b, {});
      DNSV_CHECK(before != nullptr && after != nullptr);
      if (!before->SameAs(*after) && before->ToString(*arena_) != after->ToString(*arena_)) {
        DNSV_LOG(kWarning) << "summarization of " << callee
                           << " aborted: writes to the shared heap (not stateless)";
        return nullptr;
      }
    }
    // Diff out-parameter blocks against their placeholders.
    bool ok = true;
    for (const OutInfo& out : outs) {
      const SymValue* final_value = outcome.state.memory.Resolve(out.block, {});
      DNSV_CHECK(final_value != nullptr);
      const SymValue* initial = nullptr;
      for (const auto& [param, placeholder] : summary->out_placeholders) {
        if (param == out.param) {
          initial = &placeholder;
        }
      }
      DNSV_CHECK(initial != nullptr);
      for (size_t f = 0; f < final_value->elems.size() && ok; ++f) {
        const SymValue& before = initial->elems[f];
        const SymValue& after = final_value->elems[f];
        // Unchanged iff structurally identical (scalar vars, empty lists,
        // null pointer assumptions).
        if (before.SameAs(after) || before.ToString(*arena_) == after.ToString(*arena_)) {
          continue;
        }
        if (ContainsEscapingPtr(after, escape_floor)) {
          ok = false;
          break;
        }
        entry.writes.push_back({out.param, f, after});
      }
      if (!ok) {
        break;
      }
    }
    if (!ok) {
      DNSV_LOG(kWarning) << "summarization of " << callee
                         << " aborted: effects outside the supported patterns";
      return nullptr;
    }
    summary->entries.push_back(std::move(entry));
  }

  summary->compute_seconds = ElapsedSeconds() - start;
  stats_.entries_total += static_cast<int64_t>(summary->entries.size());
  ++stats_.summaries_computed;
  DNSV_LOG(kInfo) << "summarized " << callee << ": " << summary->entries.size()
                  << " input-effect pairs in " << summary->compute_seconds << "s";
  const FunctionSummary* raw = summary.get();
  cache_[CacheKey(callee, args, modes)] = std::move(summary);
  return raw;
}

SymValue Summarizer::SubstituteValue(const SymValue& value,
                                     const std::unordered_map<uint32_t, Term>& subst) {
  switch (value.kind) {
    case SymValue::Kind::kUnit:
    case SymValue::Kind::kPtr:
      return value;
    case SymValue::Kind::kTerm: {
      SymValue out = value;
      out.term = arena_->Substitute(value.term, subst);
      return out;
    }
    case SymValue::Kind::kStruct:
    case SymValue::Kind::kList: {
      SymValue out = value;
      if (value.kind == SymValue::Kind::kList) {
        out.list_len = arena_->Substitute(value.list_len, subst);
      }
      // Rebuild the node only when a leaf changed; otherwise the result
      // shares the summary's node.
      std::vector<SymValue> elems;
      elems.reserve(value.elems.size());
      bool changed = false;
      for (const SymValue& elem : value.elems) {
        elems.push_back(SubstituteValue(elem, subst));
        changed = changed || !elems.back().SameAs(elem);
      }
      if (changed) {
        out.elems = SymElems(std::move(elems));
      }
      return out;
    }
  }
  DNSV_CHECK(false);
  return SymValue::Unit();
}

std::optional<std::vector<SummaryProvider::Application>> Summarizer::TryApply(
    const std::string& callee, const std::vector<SymValue>& args, const SymState& state) {
  auto iface = interfaces_.find(callee);
  if (iface == interfaces_.end()) {
    return std::nullopt;
  }
  const std::vector<ParamMode>& modes = iface->second.params;
  if (modes.size() != args.size()) {
    return std::nullopt;
  }
  // Concrete-mode arguments must actually be concrete for the cache key to
  // be meaningful.
  for (size_t i = 0; i < args.size(); ++i) {
    if (modes[i] == ParamMode::kConcrete && ContainsVars(args[i], *arena_)) {
      return std::nullopt;
    }
  }
  const FunctionSummary* summary = GetOrCompute(callee, args);
  if (summary == nullptr) {
    return std::nullopt;
  }

  // Bind the summary's input variables to the caller's actual values.
  std::unordered_map<uint32_t, Term> subst;
  std::vector<std::pair<size_t, SymValue>> out_targets;  // param -> caller ptr
  for (size_t i = 0; i < args.size(); ++i) {
    const SymValue& placeholder = summary->placeholder_args[i];
    const SymValue& actual = args[i];
    switch (modes[i]) {
      case ParamMode::kConcrete:
        break;
      case ParamMode::kSymbolicInt:
        if (actual.kind != SymValue::Kind::kTerm) {
          return std::nullopt;
        }
        subst[placeholder.term.id()] = actual.term;
        break;
      case ParamMode::kSymbolicIntList: {
        if (actual.kind != SymValue::Kind::kList) {
          return std::nullopt;
        }
        subst[placeholder.list_len.id()] = actual.list_len;
        for (size_t k = 0; k < placeholder.elems.size(); ++k) {
          Term bound;
          if (k < actual.elems.size()) {
            if (actual.elems[k].kind != SymValue::Kind::kTerm) {
              return std::nullopt;
            }
            bound = actual.elems[k].term;
          } else {
            // Beyond the caller's capacity: only reachable in combinations
            // excluded by the length constraints; a fresh var is sound.
            bound = arena_->Var(StrCat("apad.", apply_counter_, ".", i, ".", k), Sort::kInt);
          }
          subst[placeholder.elems[k].term.id()] = bound;
        }
        break;
      }
      case ParamMode::kOutStruct: {
        if (actual.kind != SymValue::Kind::kPtr || actual.IsNullPtr()) {
          return std::nullopt;
        }
        const SymValue* target = state.memory.Resolve(actual.block, actual.path);
        if (target == nullptr || target->kind != SymValue::Kind::kStruct) {
          return std::nullopt;
        }
        const SymValue* placeholder_struct = nullptr;
        for (const auto& [param, ph] : summary->out_placeholders) {
          if (param == i) {
            placeholder_struct = &ph;
          }
        }
        DNSV_CHECK(placeholder_struct != nullptr);
        if (placeholder_struct->elems.size() != target->elems.size()) {
          return std::nullopt;
        }
        for (size_t f = 0; f < placeholder_struct->elems.size(); ++f) {
          const SymValue& field_placeholder = placeholder_struct->elems[f];
          const SymValue& field_actual = target->elems[f];
          switch (field_placeholder.kind) {
            case SymValue::Kind::kTerm:
              if (field_actual.kind != SymValue::Kind::kTerm) {
                return std::nullopt;
              }
              subst[field_placeholder.term.id()] = field_actual.term;
              break;
            case SymValue::Kind::kPtr:
              // The summary assumed this field started as null.
              if (!field_actual.IsNullPtr()) {
                return std::nullopt;
              }
              break;
            case SymValue::Kind::kList: {
              // The summary assumed this list field started empty.
              int64_t actual_len = -1;
              if (field_actual.kind != SymValue::Kind::kList ||
                  !arena_->AsIntConst(field_actual.list_len, &actual_len) ||
                  actual_len != 0) {
                return std::nullopt;
              }
              break;
            }
            default:
              return std::nullopt;
          }
        }
        out_targets.emplace_back(i, actual);
        break;
      }
    }
  }
  ++apply_counter_;

  std::vector<Application> applications;
  for (const SummaryEntry& entry : summary->entries) {
    Term condition = arena_->Substitute(entry.condition, subst);
    Term combined = arena_->And(state.pc, condition);
    bool constant = false;
    if (arena_->AsBoolConst(combined, &constant)) {
      if (!constant) {
        continue;
      }
    } else if (solver_->CheckAssuming(combined) == SatResult::kUnsat) {
      // Only a *proved* infeasible entry may be dropped; an unknown verdict
      // (solver timeout) keeps the entry — over-approximating the successor
      // set is sound, losing a feasible one is not.
      continue;
    }
    Application app;
    app.state = state;
    app.state.pc = combined;
    if (entry.panics) {
      app.panics = true;
      app.panic_message = entry.panic_message;
      applications.push_back(std::move(app));
      continue;
    }
    app.return_value = SubstituteValue(entry.return_value, subst);
    auto find_target = [&](size_t param) -> const SymValue* {
      for (const auto& [p, ptr] : out_targets) {
        if (p == param) {
          return &ptr;
        }
      }
      return nullptr;
    };
    for (const SummaryEntry::FieldWrite& write : entry.writes) {
      const SymValue* target_ptr = find_target(write.param);
      DNSV_CHECK(target_ptr != nullptr);
      const SymValue* slot = app.state.memory.Resolve(target_ptr->block, target_ptr->path);
      DNSV_CHECK(slot != nullptr && slot->kind == SymValue::Kind::kStruct);
      // A store into this path's own copy of the memory: the caller's state
      // and the other entries' applications keep the shared block.
      SymPath field_path = target_ptr->path;
      field_path.push_back(static_cast<int64_t>(write.field));
      bool stored = app.state.memory.Store(target_ptr->block, field_path,
                                           SubstituteValue(write.value, subst));
      DNSV_CHECK(stored);
    }
    applications.push_back(std::move(app));
  }
  ++stats_.applications;
  return applications;
}

}  // namespace dnsv
