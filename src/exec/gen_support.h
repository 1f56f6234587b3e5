// Support types for AOT-generated AbsIR code (src/exec/codegen.cc emits
// translation units that include this header and nothing else of the exec
// layer). The generated code mirrors the concrete interpreter instruction by
// instruction — same Value/ConcreteMemory model, same panic messages, same
// call-depth limit — so the two backends are behaviorally interchangeable.
#ifndef DNSV_EXEC_GEN_SUPPORT_H_
#define DNSV_EXEC_GEN_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/sources/sources.h"
#include "src/interp/value.h"

namespace dnsv {
namespace execgen {

// Parity with Interpreter::kMaxCallDepth: the interpreter panics when a
// frame's depth exceeds 256 with the entry frame at 0; generated code counts
// the entry frame as 1, so the limit shifts by one.
inline constexpr int kGenMaxCallDepth = 257;

// Per-run execution context; one per ExecutionBackend::Run call.
struct GenCtx {
  ConcreteMemory* memory = nullptr;
  int depth = 0;      // live generated frames
  std::string panic;  // set when a generated function returns false
};

inline bool GenPanic(GenCtx& ctx, const char* message) {
  ctx.panic.assign(message);
  return false;
}

struct DepthScope {
  GenCtx& ctx;
  explicit DepthScope(GenCtx& c) : ctx(c) { ++ctx.depth; }
  ~DepthScope() { --ctx.depth; }
};

// kGep: `*dst = base with idxs appended to its index path`. Building the
// extended path in place sizes the vector exactly once — the naive
// copy-then-push_back pair allocates the copy at exact capacity and then
// immediately reallocates it — and a register that lives in a loop keeps its
// capacity across iterations, making steady-state geps allocation-free.
// `base` is never `*dst`: result registers are structurally single-def, so a
// gep cannot name its own result as an operand.
inline void GenGepInto(Value* dst, const Value& base, const int64_t* idxs, size_t n) {
  dst->kind = Value::Kind::kPtr;
  dst->block = base.block;
  dst->i = 0;
  dst->elems.clear();
  std::vector<int64_t>& path = dst->path;
  path.clear();
  path.reserve(base.path.size() + n);
  path.insert(path.end(), base.path.begin(), base.path.end());
  path.insert(path.end(), idxs, idxs + n);
}

// A pointer held outside the Value model: the result of a kGep used only as
// the address of a load, a store or another gep (codegen.cc, "inline GEP
// paths"). The index path lives inline; the emitter sizes N from the
// module's deepest struct/list nesting, which bounds every well-typed path.
// Only an ill-typed host value could exceed it, and such a path fails
// closed: the pointer is marked with kGenInvalidBlock, which Resolve rejects
// as "invalid memory access", exactly as it rejects a path that walks off
// the value tree.
inline constexpr BlockIndex kGenInvalidBlock = ~BlockIndex{0};

template <size_t N>
struct GenPtr {
  BlockIndex block = kNullBlockIndex;
  uint32_t len = 0;
  int64_t idx[N];
};

template <size_t N>
inline void GenPtrAppend(GenPtr<N>* dst, const int64_t* idxs, size_t n) {
  if (n > N - dst->len) {
    dst->block = kGenInvalidBlock;
    dst->len = 0;
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    dst->idx[dst->len + k] = idxs[k];
  }
  dst->len += static_cast<uint32_t>(n);
}

// kGep into a GenPtr from a Value base (the caller has null-checked it).
template <size_t N>
inline void GenPtrGep(GenPtr<N>* dst, const Value& base, const int64_t* idxs, size_t n) {
  dst->len = 0;
  if (base.path.size() > N) {
    dst->block = kGenInvalidBlock;
    return;
  }
  dst->block = base.block;
  GenPtrAppend(dst, base.path.data(), base.path.size());
  GenPtrAppend(dst, idxs, n);
}

// kGep into a GenPtr from a GenPtr base. A GenPtr is never null: it was
// produced by a gep whose null check already ran. Only the live `len`
// indices are copied; the rest of the array is never read.
template <size_t N>
inline void GenPtrGep(GenPtr<N>* dst, const GenPtr<N>& base, const int64_t* idxs, size_t n) {
  dst->block = base.block;
  dst->len = 0;
  GenPtrAppend(dst, base.idx, base.len);
  GenPtrAppend(dst, idxs, n);
}

// kGep into a Value register (the pointer escapes) from a GenPtr base.
template <size_t N>
inline void GenGepInto(Value* dst, const GenPtr<N>& base, const int64_t* idxs, size_t n) {
  dst->kind = Value::Kind::kPtr;
  dst->block = base.block;
  dst->i = 0;
  dst->elems.clear();
  dst->path.assign(base.idx, base.idx + base.len);
  dst->path.insert(dst->path.end(), idxs, idxs + n);
}

template <size_t N>
inline Value* GenResolve(ConcreteMemory* memory, const GenPtr<N>& ptr) {
  return memory->Resolve(ptr.block, ptr.idx, ptr.len);
}

// Uniform entry: unpacks `args` into the generated function's parameters.
// Returns false on panic (message in ctx.panic), true with *ret set
// otherwise.
using GenInvoke = bool (*)(GenCtx& ctx, const std::vector<Value>& args, Value* ret);

struct GenFnEntry {
  const char* name;  // AbsIR function name ("resolve", "rrlookup", ...)
  GenInvoke invoke;
  int arity;
};

// One engine version's generated code plus its provenance.
struct GenModule {
  EngineVersion version;
  const char* version_name;
  uint64_t ir_fingerprint;  // ModuleFingerprint of the post-prune AbsIR
  const GenFnEntry* entries;
  size_t num_entries;
};

// Defined by the build-time generated manifest (gen_manifest.cc, written by
// absir-codegen); returns one GenModule per engine version.
const GenModule* const* AllGenModules(size_t* count);

}  // namespace execgen
}  // namespace dnsv

#endif  // DNSV_EXEC_GEN_SUPPORT_H_
