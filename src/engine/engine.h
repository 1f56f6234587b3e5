// High-level engine API: compile a version, load a zone, serve queries.
//
// This is the "product" surface a downstream user touches: it glues the
// MiniGo frontend, the control plane, and the interpreter into an
// authoritative server for one zone. The verifier (src/dnsv) works on the
// same CompiledEngine.
#ifndef DNSV_ENGINE_ENGINE_H_
#define DNSV_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/dns/heap.h"
#include "src/dns/name.h"
#include "src/dns/zone.h"
#include "src/engine/sources/sources.h"
#include "src/frontend/frontend.h"
#include "src/exec/backend.h"
#include "src/interp/interp.h"
#include "src/ir/function.h"
#include "src/support/logging.h"

namespace dnsv {

// One compiled engine version: its AbsIR module plus the shared type table.
// Immutable once shared (see Freeze below), so a single instance can be used
// across threads and verification runs.
class CompiledEngine {
 public:
  // Compiles `version` (engine + matching spec). Aborts on compile errors —
  // the embedded sources are part of this repository and must always build.
  static std::unique_ptr<CompiledEngine> Compile(EngineVersion version);

  // Process-wide cache: compiles `version` on first use, then returns the
  // shared instance. Thread-safe. Server startup and other "just give me the
  // engine" callers use this so they stop paying full recompilation.
  static std::shared_ptr<const CompiledEngine> GetCached(EngineVersion version);

  // Total Compile() calls in this process; lets tests assert compilation
  // reuse (N versions x M zones must compile exactly N times).
  static int64_t num_compiles();

  EngineVersion version() const { return version_; }
  const Module& module() const { return *module_; }
  const TypeTable& types() const { return *types_; }
  const Function& resolve_fn() const;
  const Function& rrlookup_fn() const;

  // Post-compile rewrites (the dataflow pruner, src/analysis) happen between
  // Compile() and the instance becoming shared; mutable access is gated on
  // that window. Freeze() ends it — afterwards mutable_module() aborts, which
  // is what makes the "immutable once shared" contract above enforceable
  // rather than aspirational. GetCached() freezes before publishing.
  Module& mutable_module() {
    DNSV_CHECK_MSG(!frozen_, "CompiledEngine mutated after Freeze()");
    return *module_;
  }
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  CompiledEngine() = default;
  EngineVersion version_ = EngineVersion::kGolden;
  bool frozen_ = false;
  std::unique_ptr<TypeTable> types_;
  std::unique_ptr<Module> module_;
};

struct QueryResult {
  bool panicked = false;
  std::string panic_message;
  // A qname label got no code from the shard's interner (its code space
  // between two neighbors ran out); the engine did not run.
  bool unencodable = false;
  ResponseView response;
};

// A loaded authoritative zone served by one engine version. Runs queries
// through a pluggable ExecutionBackend (src/exec) — both via the engine's
// Resolve and via the executable specification (for differential testing).
// The default backend is the reference interpreter; kCompiled swaps in the
// AOT-generated native code for the same version.
class AuthoritativeServer {
 public:
  // `zone` is canonicalized internally; fails on invalid zones, on zones
  // whose labels exhaust the interner's code space, or when
  // `backend` is kCompiled and this binary carries no generated code for
  // `version`.
  static Result<std::unique_ptr<AuthoritativeServer>> Create(
      EngineVersion version, const ZoneConfig& zone,
      BackendKind backend = BackendKind::kInterp);

  // Resolves qname/qtype through the engine implementation.
  QueryResult Query(const DnsName& qname, RrType qtype);
  // Resolves through the top-level specification (the oracle).
  QueryResult QuerySpec(const DnsName& qname, RrType qtype);

  const CompiledEngine& engine() const { return *engine_; }
  BackendKind backend_kind() const { return backend_kind_; }
  const ExecutionBackend& backend() const { return *backend_; }
  const ZoneConfig& zone() const { return zone_; }
  const LabelInterner& interner() const { return interner_; }
  LabelInterner& interner() { return interner_; }
  const HeapImage& heap_image() const { return image_; }
  ConcreteMemory& memory() { return memory_; }

 private:
  AuthoritativeServer() = default;
  // Fills the qname/qtype slots of `args` (resolve_args_ or spec_args_) and
  // runs `fn` over them.
  QueryResult RunLookup(const Function& fn, std::vector<Value>* args, const DnsName& qname,
                        RrType qtype);

  // Argument positions shared by resolve and rrlookup: (zone, origin, qname,
  // qtype).
  static constexpr size_t kQnameArg = 2;
  static constexpr size_t kQtypeArg = 3;

  std::shared_ptr<const CompiledEngine> engine_;
  BackendKind backend_kind_ = BackendKind::kInterp;
  std::unique_ptr<ExecutionBackend> backend_;
  ZoneConfig zone_;
  LabelInterner interner_;
  ConcreteMemory memory_;
  HeapImage image_;
  // Field layouts resolved once at Create; decoding runs once per query.
  std::unique_ptr<ResponseDecoder> decoder_;
  // Per-shard argument vectors built once at Create, so a query copies
  // neither the apex pointer nor the origin label list.
  std::vector<Value> resolve_args_;
  std::vector<Value> spec_args_;
};

}  // namespace dnsv

#endif  // DNSV_ENGINE_ENGINE_H_
