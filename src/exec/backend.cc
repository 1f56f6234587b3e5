#include "src/exec/backend.h"

#include <unordered_map>
#include <utility>

#include "src/exec/gen_support.h"
#include "src/support/strings.h"

namespace dnsv {

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kInterp:
      return "interp";
    case BackendKind::kCompiled:
      return "compiled";
  }
  return "?";
}

Result<BackendKind> ParseBackendKind(const std::string& text) {
  if (text == "interp") {
    return BackendKind::kInterp;
  }
  if (text == "compiled") {
    return BackendKind::kCompiled;
  }
  return Result<BackendKind>::Error(
      StrCat("unknown backend '", text, "' (expected interp or compiled)"));
}

namespace {

class InterpBackend final : public ExecutionBackend {
 public:
  explicit InterpBackend(const Module* module) : module_(module) {}

  const char* name() const override { return "interp"; }

  ExecOutcome Run(const Function& function, const std::vector<Value>& args,
                  ConcreteMemory* memory) override {
    Interpreter interp(module_, memory);
    return interp.Run(function, args);
  }

 private:
  const Module* module_;
};

const execgen::GenModule* FindGenModule(EngineVersion version) {
  size_t count = 0;
  const execgen::GenModule* const* modules = execgen::AllGenModules(&count);
  for (size_t i = 0; i < count; ++i) {
    if (modules[i]->version == version) {
      return modules[i];
    }
  }
  return nullptr;
}

class CompiledBackend final : public ExecutionBackend {
 public:
  explicit CompiledBackend(const execgen::GenModule* gen) : gen_(gen) {
    entries_.reserve(gen_->num_entries);
    for (size_t i = 0; i < gen_->num_entries; ++i) {
      entries_.emplace(gen_->entries[i].name, &gen_->entries[i]);
    }
  }

  const char* name() const override { return "compiled"; }

  ExecOutcome Run(const Function& function, const std::vector<Value>& args,
                  ConcreteMemory* memory) override {
    ExecOutcome outcome;
    const execgen::GenFnEntry* entry = Lookup(function);
    if (entry == nullptr || entry->arity != static_cast<int>(args.size())) {
      // A function the generated module does not know (or knows with a
      // different arity) means the caller is driving the wrong engine
      // version's backend — surface it as a panic, like the interpreter
      // surfaces calls into unknown functions, instead of crashing a worker.
      outcome.kind = ExecOutcome::Kind::kPanicked;
      outcome.panic_message =
          StrCat("compiled backend (", gen_->version_name, ") has no entry for '",
                 function.name(), "' with ", args.size(), " args");
      return outcome;
    }
    execgen::GenCtx ctx;
    ctx.memory = memory;
    Value ret;
    if (!entry->invoke(ctx, args, &ret)) {
      outcome.kind = ExecOutcome::Kind::kPanicked;
      outcome.panic_message = std::move(ctx.panic);
      return outcome;
    }
    outcome.kind = ExecOutcome::Kind::kReturned;
    outcome.return_value = std::move(ret);
    return outcome;
  }

 private:
  // A shard drives the same one or two functions on every query, so the
  // last lookup is remembered by Function identity; the name check keeps a
  // recycled Function address from reusing a stale entry.
  const execgen::GenFnEntry* Lookup(const Function& function) {
    if (&function != last_fn_ || last_entry_ == nullptr ||
        function.name() != last_entry_->name) {
      auto it = entries_.find(function.name());
      last_fn_ = &function;
      last_entry_ = it == entries_.end() ? nullptr : it->second;
    }
    return last_entry_;
  }

  const execgen::GenModule* gen_;
  std::unordered_map<std::string, const execgen::GenFnEntry*> entries_;
  const Function* last_fn_ = nullptr;
  const execgen::GenFnEntry* last_entry_ = nullptr;
};

}  // namespace

std::unique_ptr<ExecutionBackend> MakeInterpBackend(const Module* module) {
  return std::make_unique<InterpBackend>(module);
}

Result<std::unique_ptr<ExecutionBackend>> MakeCompiledBackend(EngineVersion version) {
  const execgen::GenModule* gen = FindGenModule(version);
  if (gen == nullptr) {
    return Result<std::unique_ptr<ExecutionBackend>>::Error(
        "no AOT-compiled module for this engine version in the binary "
        "(absir-codegen did not emit it)");
  }
  return std::unique_ptr<ExecutionBackend>(std::make_unique<CompiledBackend>(gen));
}

bool CompiledBackendAvailable(EngineVersion version) {
  return FindGenModule(version) != nullptr;
}

Result<uint64_t> CompiledBackendFingerprint(EngineVersion version) {
  const execgen::GenModule* gen = FindGenModule(version);
  if (gen == nullptr) {
    return Result<uint64_t>::Error("no AOT-compiled module for this engine version");
  }
  return gen->ir_fingerprint;
}

}  // namespace dnsv
