// AuthoritativeServer: one loaded zone served through an ExecutionBackend.
// (CompiledEngine itself lives in compile.cc — see the note there.)
#include "src/engine/engine.h"

#include "src/support/logging.h"

namespace dnsv {

Result<std::unique_ptr<AuthoritativeServer>> AuthoritativeServer::Create(
    EngineVersion version, const ZoneConfig& zone, BackendKind backend) {
  Result<ZoneConfig> canonical = CanonicalizeZone(zone);
  if (!canonical.ok()) {
    return Result<std::unique_ptr<AuthoritativeServer>>::Error(canonical.error());
  }
  auto server = std::unique_ptr<AuthoritativeServer>(new AuthoritativeServer());
  server->engine_ = CompiledEngine::GetCached(version);
  server->backend_kind_ = backend;
  if (backend == BackendKind::kCompiled) {
    Result<std::unique_ptr<ExecutionBackend>> compiled = MakeCompiledBackend(version);
    if (!compiled.ok()) {
      return Result<std::unique_ptr<AuthoritativeServer>>::Error(compiled.error());
    }
    server->backend_ = std::move(compiled).value();
  } else {
    server->backend_ = MakeInterpBackend(&server->engine_->module());
  }
  server->zone_ = std::move(canonical).value();
  Result<HeapImage> built = BuildHeapImage(server->zone_, &server->interner_,
                                           server->engine_->types(), &server->memory_);
  if (!built.ok()) {
    return Result<std::unique_ptr<AuthoritativeServer>>::Error(built.error());
  }
  server->image_ = std::move(built).value();
  server->decoder_ =
      std::make_unique<ResponseDecoder>(server->engine_->types(), server->interner_);
  // The zone arguments never change for a loaded zone; each query only
  // overwrites the qname and qtype slots (see Query / QuerySpec).
  const HeapImage& image = server->image_;
  server->resolve_args_ = {image.apex_ptr, image.origin_labels, Value::List(), Value::Int(0)};
  server->spec_args_ = {image.zone_rrs, image.origin_labels, Value::List(), Value::Int(0)};
  return server;
}

QueryResult AuthoritativeServer::RunLookup(const Function& fn, std::vector<Value>* args,
                                           const DnsName& qname, RrType qtype) {
  Result<Value> qname_value = QnameValue(qname, &interner_);
  if (!qname_value.ok()) {
    QueryResult result;
    result.unencodable = true;
    return result;
  }
  (*args)[kQnameArg] = std::move(qname_value).value();
  (*args)[kQtypeArg].i = static_cast<int64_t>(qtype);
  // Blocks allocated past this point are query-scoped: a resolve run is a
  // pure lookup over the zone image (it never stores into zone blocks), so
  // after the response is decoded into plain RrViews nothing references
  // them. Reclaiming here keeps a long-lived shard's heap flat instead of
  // growing per query until the serving shell's hygiene rebuild.
  const size_t watermark = memory_.num_blocks();
  ExecOutcome outcome = backend_->Run(fn, *args, &memory_);
  QueryResult result;
  if (!outcome.ok()) {
    result.panicked = true;
    result.panic_message = outcome.kind == ExecOutcome::Kind::kStepLimit
                               ? "step limit exceeded"
                               : outcome.panic_message;
    memory_.TruncateTo(watermark);
    return result;
  }
  result.response = decoder_->Decode(outcome.return_value, memory_);
  memory_.TruncateTo(watermark);
  return result;
}

QueryResult AuthoritativeServer::Query(const DnsName& qname, RrType qtype) {
  return RunLookup(engine_->resolve_fn(), &resolve_args_, qname, qtype);
}

QueryResult AuthoritativeServer::QuerySpec(const DnsName& qname, RrType qtype) {
  return RunLookup(engine_->rrlookup_fn(), &spec_args_, qname, qtype);
}

}  // namespace dnsv
