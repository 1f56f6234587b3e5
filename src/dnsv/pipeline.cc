#include "src/dnsv/pipeline.h"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "src/analysis/callgraph.h"
#include "src/dns/wire.h"
#include "src/dnsv/incremental.h"
#include "src/dnsv/layers.h"
#include "src/ir/printer.h"
#include "src/smt/interval_presolver.h"
#include "src/smt/query_cache.h"
#include "src/store/codec.h"
#include "src/store/qcache_io.h"
#include "src/store/summary_io.h"
#include "src/sym/refine.h"
#include "src/sym/specsub.h"
#include "src/sym/summary.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

size_t MaxOwnerLabels(const ZoneConfig& zone) {
  size_t max_labels = zone.origin.NumLabels();
  for (const ZoneRecord& record : zone.records) {
    max_labels = std::max(max_labels, record.name.NumLabels());
  }
  return max_labels;
}

std::string DecodeQname(const SymValue& qname, const Model& model, const TermArena& arena,
                        const LabelInterner& interner) {
  Value concrete = ConcretizeValue(qname, arena, &model);
  std::vector<std::string> labels;  // concrete is root-first
  for (auto it = concrete.elems.rbegin(); it != concrete.elems.rend(); ++it) {
    labels.push_back(interner.DecodeApprox(it->i));
  }
  return labels.empty() ? "." : JoinStrings(labels, ".");
}

// The symbolic inputs shared by the engine and spec workers. Both workers
// (and the compare stage) create these variables with identical names, so
// TermImporter unifies them; everything else a worker generates is renamed
// into a per-worker namespace on import.
bool IsSharedInputVar(const std::string& name) {
  return name == "qtype" || name.rfind("qname.", 0) == 0;
}

}  // namespace

// One explored path, exported from a worker's private arena.
struct ExploredPath {
  PathOutcome::Kind kind = PathOutcome::Kind::kReturned;
  Term pc;            // in the worker's arena
  SymValue response;  // resolved *Response contents (returned paths only)
  std::string panic_message;
};

// Everything a worker hands back to the pipeline. The arena stays alive so
// the exported terms remain valid until the compare stage has imported them.
// A cached spec exploration (VerifyContext) is one of these, compacted: it
// keeps only the arena, the paths and the counters a report copies.
struct ExploreResult {
  bool aborted = false;
  std::string abort_reason;
  std::unique_ptr<TermArena> arena;
  std::vector<ExploredPath> paths;
  double seconds = 0;
  SolverStats solver;
  int64_t summaries_computed = 0;
  int64_t summary_applications = 0;
  int64_t manual_specs_verified = 0;
  int64_t spec_substitutions = 0;
};

namespace {

// ExploreStage worker: full-path symbolic execution of either the engine's
// Resolve (spec_side=false) or the rrlookup specification (spec_side=true),
// in a freshly built, fully private symbolic session.
ExploreResult RunExploreWorker(const CompiledEngine& engine, const LiftedZone& lifted,
                               const VerifyOptions& options, bool spec_side) {
  ExploreResult result;
  double start = ElapsedSeconds();
  result.arena = std::make_unique<TermArena>();
  TermArena& arena = *result.arena;
  SolverSession solver(&arena, options.solver);

  SymMemory base_memory = LiftMemory(lifted.memory, &arena);
  SymValue apex = LiftValue(lifted.image.apex_ptr, &arena);
  SymValue origin = LiftValue(lifted.image.origin_labels, &arena);
  SymValue zone_rrs = LiftValue(lifted.image.zone_rrs, &arena);

  int qname_capacity =
      static_cast<int>(lifted.max_owner_labels) + options.extra_qname_labels;
  SymbolicIntList qname =
      MakeSymbolicIntList(&arena, "qname", qname_capacity, LabelInterner::kWildcardCode,
                          lifted.interner.max_code());
  SymbolicInt qtype = MakeSymbolicInt(&arena, "qtype", 1, 255);
  solver.Assert(qname.constraints);
  solver.Assert(qtype.constraints);

  ExecLimits limits;
  SymExecutor executor(&engine.module(), &arena, &solver, limits);
  ChainedProvider providers;
  std::unique_ptr<Summarizer> summarizer;
  std::unique_ptr<SpecSubstitution> spec_substitution;
  bool any_provider = false;
  if (options.use_summaries) {
    summarizer = std::make_unique<Summarizer>(&engine.module(), &arena, &solver, base_memory,
                                              qname_capacity, lifted.interner.max_code());
    for (FunctionInterface& interface_config : ResolutionLayerInterfaces()) {
      summarizer->Configure(std::move(interface_config));
    }
    providers.Add(summarizer.get());
    any_provider = true;
  }
  if (options.use_manual_specs) {
    // Discharge the refinement obligation (spec ≡ impl, Fig. 1), then route
    // library calls through the abstract spec. Each worker proves it against
    // its own solver; the obligation is counted once (engine side).
    const std::pair<const char*, const char*> manual_specs[] = {{"nameEq", "nameEqSpec"}};
    spec_substitution = std::make_unique<SpecSubstitution>(&engine.module(), &arena, &solver);
    for (const auto& [impl_name, spec_name] : manual_specs) {
      SymbolicIntList a = MakeSymbolicIntList(&arena, StrCat("ref.", impl_name, ".a"),
                                              qname_capacity, LabelInterner::kWildcardCode,
                                              lifted.interner.max_code());
      SymbolicIntList b = MakeSymbolicIntList(&arena, StrCat("ref.", impl_name, ".b"),
                                              qname_capacity, LabelInterner::kWildcardCode,
                                              lifted.interner.max_code());
      SymState ref_state;
      ref_state.pc = arena.And(a.constraints, b.constraints);
      RefinementResult refinement = CheckFunctionRefinement(
          &executor, *engine.module().GetFunction(impl_name),
          *engine.module().GetFunction(spec_name), {a.value, b.value}, ref_state);
      if (!refinement.ok()) {
        result.aborted = true;
        result.abort_reason = StrCat("manual spec for ", impl_name, " does not refine: ",
                                     refinement.aborted ? refinement.abort_reason
                                                        : refinement.mismatches[0].description);
        result.solver = solver.stats();
        result.seconds = ElapsedSeconds() - start;
        return result;
      }
      spec_substitution->Map(impl_name, spec_name);
      ++result.manual_specs_verified;
    }
    providers.Add(spec_substitution.get());
    any_provider = true;
  }
  if (any_provider) {
    executor.set_summary_provider(&providers);
  }

  const Function& entry = spec_side ? engine.rrlookup_fn() : engine.resolve_fn();
  std::vector<SymValue> args =
      spec_side ? std::vector<SymValue>{zone_rrs, origin, qname.value, qtype.value}
                : std::vector<SymValue>{apex, origin, qname.value, qtype.value};

  std::vector<PathOutcome> outcomes;
  try {
    SymState state;
    state.memory = base_memory;
    state.pc = arena.True();
    outcomes = executor.Explore(entry, args, std::move(state));
  } catch (const DnsvError& e) {
    result.aborted = true;
    result.abort_reason =
        StrCat(spec_side ? "spec" : "engine", " exploration: ", e.what());
    result.solver = solver.stats();
    result.seconds = ElapsedSeconds() - start;
    return result;
  }

  result.paths.reserve(outcomes.size());
  for (const PathOutcome& outcome : outcomes) {
    ExploredPath path;
    path.kind = outcome.kind;
    path.pc = outcome.state.pc;
    if (outcome.kind == PathOutcome::Kind::kPanicked) {
      path.panic_message = outcome.panic_message;
    } else {
      const SymValue& response_ptr = outcome.return_value;
      DNSV_CHECK(response_ptr.kind == SymValue::Kind::kPtr && !response_ptr.IsNullPtr());
      const SymValue* response =
          outcome.state.memory.Resolve(response_ptr.block, response_ptr.path);
      DNSV_CHECK(response != nullptr);
      path.response = *response;
    }
    result.paths.push_back(std::move(path));
  }

  if (summarizer != nullptr) {
    result.summaries_computed = summarizer->stats().summaries_computed;
    result.summary_applications = summarizer->stats().applications;
  }
  if (spec_substitution != nullptr) {
    result.spec_substitutions = spec_substitution->substitutions();
  }
  result.solver = solver.stats();
  result.seconds = ElapsedSeconds() - start;
  return result;
}

// Imports a worker's paths into the compare arena, renaming worker-internal
// variables into the `tag` namespace.
std::vector<ExploredPath> ImportPaths(const ExploreResult& worker, const char* tag,
                                      TermArena* arena) {
  TermImporter importer(worker.arena.get(), arena, [tag](const std::string& name) {
    return IsSharedInputVar(name) ? name : StrCat(tag, "!", name);
  });
  std::vector<ExploredPath> paths;
  paths.reserve(worker.paths.size());
  for (const ExploredPath& path : worker.paths) {
    ExploredPath imported;
    imported.kind = path.kind;
    imported.pc = importer.Import(path.pc);
    imported.panic_message = path.panic_message;
    if (path.kind == PathOutcome::Kind::kReturned) {
      imported.response = ImportSymValue(path.response, &importer);
    }
    paths.push_back(std::move(imported));
  }
  return paths;
}

void MarkReachable(const TermArena& arena, Term t, std::vector<bool>* seen) {
  if (!t.valid() || (*seen)[t.id()]) return;
  (*seen)[t.id()] = true;
  for (Term op : arena.node(t).operands) {
    MarkReachable(arena, op, seen);
  }
}

void MarkReachable(const TermArena& arena, const SymValue& value, std::vector<bool>* seen) {
  MarkReachable(arena, value.term, seen);
  MarkReachable(arena, value.list_len, seen);
  for (const SymValue& elem : value.elems) {
    MarkReachable(arena, elem, seen);
  }
}

// The cacheable part of a finished exploration: its paths, copied into a
// fresh arena that holds only the terms they reach (the worker's scratch
// terms are freed with its arena), and the counters a report copies.
// Terms are copied in ascending id order, so they keep their relative order
// and every id-ordered normalization (Eq's operand order) comes out the
// same: importing the compacted paths builds exactly the compare-stage
// terms that importing the worker's paths would.
ExploreResult Compact(const ExploreResult& worker) {
  const TermArena& from = *worker.arena;
  std::vector<bool> seen(from.size(), false);
  for (const ExploredPath& path : worker.paths) {
    MarkReachable(from, path.pc, &seen);
    MarkReachable(from, path.response, &seen);
  }
  ExploreResult compact;
  compact.arena = std::make_unique<TermArena>();
  TermImporter importer(&from, compact.arena.get());
  for (uint32_t id = 0; id < seen.size(); ++id) {
    if (seen[id]) importer.Import(Term(id));
  }
  compact.paths.reserve(worker.paths.size());
  for (const ExploredPath& path : worker.paths) {
    ExploredPath copy = path;
    copy.pc = importer.Import(path.pc);
    copy.response = ImportSymValue(path.response, &importer);
    compact.paths.push_back(std::move(copy));
  }
  compact.summaries_computed = worker.summaries_computed;
  compact.summary_applications = worker.summary_applications;
  compact.spec_substitutions = worker.spec_substitutions;
  return compact;
}

// Everything RunExploreWorker reads on the spec side: the cones of rrlookup
// and of the manual-spec pair, the struct layouts the zone heap was lifted
// against, the canonical zone, and the option digest.
std::string SpecExplorationKey(const ModuleManifest& manifest, const CompiledEngine& engine,
                               const LiftedZone& lifted, const std::string& options_digest) {
  uint64_t cones =
      CombineConeHashes(manifest, {engine.rrlookup_fn().name(), "nameEq", "nameEqSpec"});
  return StrCat("cones:", HexU64(cones), "|types:", HexU64(TypeTableFingerprint(engine.types())),
                "|opt:", options_digest, "|zone:", lifted.zone.ToText());
}

// ConfirmStage state: decodes counterexample models into concrete queries,
// re-executes them on the interpreter, classifies (Table 2), and dedupes.
class Confirmer {
 public:
  Confirmer(const CompiledEngine& engine, const LiftedZone& lifted, const TermArena& arena,
            const SymValue& qname, const SymValue& qtype, VerificationReport* report,
            int max_issues)
      : engine_(engine),
        lifted_(lifted),
        arena_(arena),
        qname_(qname),
        qtype_(qtype),
        memory_(lifted.memory),  // private copy: interpretation allocates
        interp_(&engine.module(), &memory_),
        replay_interner_(lifted.interner),  // private copy: wire replay interns
        report_(report),
        max_issues_(max_issues) {}

  bool full() const { return static_cast<int>(report_->issues.size()) >= max_issues_; }
  double seconds() const { return seconds_; }

  // Decodes + confirms + classifies `issue` against `model` (when present),
  // then appends it unless it duplicates an already-reported behavior.
  void Add(VerificationIssue issue, const Model* model) {
    double start = ElapsedSeconds();
    if (model != nullptr) {
      Decode(&issue, *model);
    }
    // One issue per behavior classification: Table-2 granularity. Distinct
    // bugs of the same classification are surfaced by re-running after a fix,
    // which is how the paper's workflow uses DNS-V too.
    std::string key = StrCat(static_cast<int>(issue.kind), "|", issue.description, "|",
                             issue.classification);
    if (seen_.insert(key).second && !full()) {
      report_->issues.push_back(std::move(issue));
    }
    seconds_ += ElapsedSeconds() - start;
  }

 private:
  void Decode(VerificationIssue* issue, const Model& model) {
    Value cq = ConcretizeValue(qname_, arena_, &model);
    Value qtype_value = ConcretizeValue(qtype_, arena_, &model);
    int64_t ct = qtype_value.i;
    issue->qname = DecodeQname(qname_, model, arena_, lifted_.interner);
    issue->qtype = static_cast<RrType>(ct);
    ExecOutcome engine_run =
        interp_.Run(engine_.resolve_fn(),
                    {lifted_.image.apex_ptr, lifted_.image.origin_labels, cq, Value::Int(ct)});
    ExecOutcome spec_run =
        interp_.Run(engine_.rrlookup_fn(),
                    {lifted_.image.zone_rrs, lifted_.image.origin_labels, cq, Value::Int(ct)});
    issue->engine_behavior =
        engine_run.ok()
            ? DecodeResponse(engine_run.return_value, memory_, lifted_.interner, engine_.types())
                  .ToString()
            : "panic: " + engine_run.panic_message;
    issue->spec_behavior =
        spec_run.ok()
            ? DecodeResponse(spec_run.return_value, memory_, lifted_.interner, engine_.types())
                  .ToString()
            : "panic: " + spec_run.panic_message;
    issue->confirmed = issue->engine_behavior != issue->spec_behavior;
    // Table-2 classification from the structured views.
    std::vector<std::string> kinds;
    if (!engine_run.ok()) {
      kinds.push_back("Runtime Error");
    } else if (spec_run.ok()) {
      ResponseView ev =
          DecodeResponse(engine_run.return_value, memory_, lifted_.interner, engine_.types());
      ResponseView sv =
          DecodeResponse(spec_run.return_value, memory_, lifted_.interner, engine_.types());
      if (ev.rcode != sv.rcode) kinds.push_back("Wrong rcode");
      if (ev.aa != sv.aa) kinds.push_back("Wrong Flag");
      if (ev.answer != sv.answer) kinds.push_back("Wrong Answer");
      if (ev.authority != sv.authority) kinds.push_back("Wrong Authority");
      if (ev.additional != sv.additional) kinds.push_back("Wrong Additional");
    }
    issue->classification = JoinStrings(kinds, "/");
    ReplayOnWire(issue, cq, ct);
  }

  // Closes the loop from SMT model to bytes on the wire: lowers the decoded
  // counterexample to a wire query packet, replays it through
  // encode -> parse -> engine -> encode, and records whether the engine's
  // and the spec's response packets diverge (docs/WIRE.md).
  void ReplayOnWire(VerificationIssue* issue, const Value& cq, int64_t ct) {
    WireReplay replay;
    // The qname is rebuilt label-by-label (cq is root-first): counterexample
    // names routinely carry interior '*' labels that the zone-file syntax
    // (DnsName::Parse) rejects but the wire format allows. DecodeApprox maps
    // known codes to their exact labels and model-synthesized codes to a
    // label at the same lexicographic position.
    WireQuery query;
    query.id = 0xD05E;
    for (auto it = cq.elems.rbegin(); it != cq.elems.rend(); ++it) {
      query.qname.labels.push_back(lifted_.interner.DecodeApprox(it->i));
    }
    query.qtype = static_cast<RrType>(ct);
    // Replay as a modern resolver would ask: with an OPT advertising 4 KiB.
    // The OPT bytes then ride through encode -> parse -> encode on both the
    // engine's and the spec's packets, and truncation at 512 cannot mask a
    // divergence in the dropped records.
    query.edns.present = true;
    query.edns.udp_payload = kEdnsResponderPayload;
    Status name_ok = ValidateWireName(query.qname);
    if (!name_ok.ok()) {
      replay.error = name_ok.message();
      issue->wire = std::move(replay);
      return;
    }
    replay.query_packet = EncodeWireQuery(query);
    Result<WireQuery> parsed = ParseWireQuery(replay.query_packet);
    if (!parsed.ok()) {
      replay.error = "query packet does not parse back: " + parsed.error();
      issue->wire = std::move(replay);
      return;
    }
    // Re-intern the parsed labels against a private copy of the zone's
    // interner: exact labels keep their exact codes, and synthesized labels
    // land strictly between the same interned neighbors as the model's code,
    // so the engine's relational label comparisons behave identically.
    Value wire_qname = QnameValue(parsed.value().qname, &replay_interner_);
    Value wire_qtype = Value::Int(static_cast<int64_t>(parsed.value().qtype));
    ExecOutcome engine_run =
        interp_.Run(engine_.resolve_fn(), {lifted_.image.apex_ptr, lifted_.image.origin_labels,
                                           wire_qname, wire_qtype});
    ExecOutcome spec_run =
        interp_.Run(engine_.rrlookup_fn(), {lifted_.image.zone_rrs, lifted_.image.origin_labels,
                                            wire_qname, wire_qtype});
    auto encode = [&](const ExecOutcome& run) -> Result<std::vector<uint8_t>> {
      ResponseView view;
      if (run.ok()) {
        view = DecodeResponse(run.return_value, memory_, replay_interner_, engine_.types());
      } else {
        view.rcode = Rcode::kServFail;  // a panic is served as SERVFAIL (dns_server)
      }
      return EncodeWireResponse(parsed.value(), view,
                                EffectivePayloadLimit(parsed.value().edns, kMaxUdpPayload));
    };
    Result<std::vector<uint8_t>> engine_packet = encode(engine_run);
    Result<std::vector<uint8_t>> spec_packet = encode(spec_run);
    if (!engine_packet.ok() || !spec_packet.ok()) {
      replay.error = StrCat("response packet does not encode: ",
                            engine_packet.ok() ? spec_packet.error() : engine_packet.error());
      issue->wire = std::move(replay);
      return;
    }
    WireQuery echoed;
    if (!ParseWireResponse(engine_packet.value(), &echoed).ok() ||
        !ParseWireResponse(spec_packet.value(), &echoed).ok()) {
      replay.error = "response packet does not parse back";
      issue->wire = std::move(replay);
      return;
    }
    replay.engine_packet = std::move(engine_packet).value();
    replay.spec_packet = std::move(spec_packet).value();
    replay.attempted = true;
    replay.reproduced = replay.engine_packet != replay.spec_packet;
    issue->wire = std::move(replay);
  }

  const CompiledEngine& engine_;
  const LiftedZone& lifted_;
  const TermArena& arena_;
  SymValue qname_, qtype_;
  ConcreteMemory memory_;
  Interpreter interp_;
  LabelInterner replay_interner_;
  VerificationReport* report_;
  int max_issues_;
  std::set<std::string> seen_;
  double seconds_ = 0;
};

StageStats MakeStage(const char* name, double seconds, bool from_cache = false,
                     const SolverStats& solver = {}) {
  StageStats stage;
  stage.stage = name;
  stage.seconds = seconds;
  stage.from_cache = from_cache;
  stage.solver = solver;
  return stage;
}

}  // namespace

std::shared_ptr<const CompiledEngine> VerifyContext::GetEngine(EngineVersion version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engines_.find(version);
  if (it != engines_.end()) {
    ++stats_.engine_cache_hits;
    return it->second;
  }
  std::unique_ptr<CompiledEngine> compiled = CompiledEngine::Compile(version);
  compiled->Freeze();  // shared below; callers must see the frontend's exact output
  std::shared_ptr<const CompiledEngine> engine = std::move(compiled);
  ++stats_.engine_compiles;
  engines_.emplace(version, engine);
  return engine;
}

std::shared_ptr<const PrunedEngine> VerifyContext::GetPrunedEngine(EngineVersion version,
                                                                   ArtifactStore* store,
                                                                   bool replay_from_store) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pruned_engines_.find(version);
    if (it != pruned_engines_.end()) {
      ++stats_.prune_cache_hits;
      return it->second;
    }
  }
  // Compile + prune outside the lock. A private compilation, not the shared
  // GetEngine entry: PruneModule rewrites the module in place and the
  // unpruned cache must keep serving the frontend's exact output.
  auto pruned = std::make_shared<PrunedEngine>();
  double start = ElapsedSeconds();
  std::unique_ptr<CompiledEngine> fresh = CompiledEngine::Compile(version);
  pruned->compile_seconds = ElapsedSeconds() - start;

  uint64_t pre_fingerprint = 0;
  std::string interproc_key;
  if (store != nullptr) {
    pre_fingerprint = ModuleFingerprint(fresh->module());
    interproc_key = InterprocKey(pre_fingerprint, EngineAnalysisRoots());
  }

  // Runs the prune over the current `fresh` module. With a store and
  // `allow_replay`, the whole-module interprocedural passes are replaced by
  // the stored facts (a pure function of the pre-prune module, so replay is
  // sound whenever the fingerprint-addressed artifact parses); otherwise the
  // computed facts are captured and persisted for the next process.
  auto run_prune = [&](bool allow_replay) {
    PruneOptions prune_options;
    prune_options.entry_points = EngineAnalysisRoots();
    InterprocContext replayed;
    InterprocContext captured;
    AnalysisStats restored;
    bool from_store = false;
    if (allow_replay && store != nullptr) {
      if (std::optional<std::string> payload = store->Get(kInterprocArtifactKind, interproc_key)) {
        if (ParseInterprocContext(*payload, &replayed, &restored)) {
          prune_options.precomputed = &replayed;
          from_store = true;
        }
      }
    }
    if (!from_store && store != nullptr) {
      prune_options.capture = &captured;
    }
    pruned->analysis = AnalysisStats{};
    pruned->stats = PruneModule(&fresh->mutable_module(), prune_options, &pruned->analysis);
    if (from_store) {
      // The replayed path skips the whole-module passes, so their outcome
      // counters come from the artifact; SCCP folds re-ran during pruning and
      // are already in pruned->analysis.
      pruned->analysis += restored;
    } else if (store != nullptr) {
      store->Put(kInterprocArtifactKind, interproc_key,
                 SerializeInterprocContext(captured, pruned->analysis));
    }
    pruned->summaries_from_store = from_store;
  };

  start = ElapsedSeconds();
  run_prune(replay_from_store);
  if (store != nullptr) {
    // Hash-stability cross-check: the post-prune fingerprint recorded by the
    // first (cold) prune of this exact pre-prune module must be reproduced.
    // A mismatch after a replayed prune means the stored facts steered the
    // rewrite differently — distrust them and recompute from scratch. A
    // mismatch on a cold prune can only be a stale record; overwrite it.
    uint64_t post_fingerprint = ModuleFingerprint(fresh->module());
    std::string prune_key = PruneCheckKey(pre_fingerprint);
    bool matched = false;
    bool have_record = false;
    if (std::optional<std::string> payload = store->Get(kPruneCheckKind, prune_key)) {
      ArtifactDecoder dec(*payload);
      dec.Tag("prune-check");
      uint64_t recorded = dec.U64();
      if (dec.ok() && dec.AtEnd()) {
        have_record = true;
        matched = recorded == post_fingerprint;
      }
    }
    if (have_record && !matched && pruned->summaries_from_store) {
      fresh = CompiledEngine::Compile(version);
      run_prune(/*allow_replay=*/false);
      post_fingerprint = ModuleFingerprint(fresh->module());
      matched = false;  // the record disagreed with a replay; rewrite it below
      have_record = false;
    }
    if (have_record && matched) {
      pruned->prune_fingerprint_checked = true;
    } else {
      ArtifactEncoder enc;
      enc.Tag("prune-check");
      enc.U64(post_fingerprint);
      store->Put(kPruneCheckKind, prune_key, enc.Take());
    }
  }
  pruned->prune_seconds = ElapsedSeconds() - start;
  fresh->Freeze();
  pruned->engine = std::shared_ptr<const CompiledEngine>(std::move(fresh));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = pruned_engines_.emplace(version, pruned);
  if (inserted) {
    ++stats_.engine_prunes;
  } else {
    ++stats_.prune_cache_hits;  // another thread pruned it first; use theirs
  }
  return it->second;
}

Result<std::shared_ptr<const LiftedZone>> VerifyContext::GetLiftedZone(EngineVersion version,
                                                                       const ZoneConfig& zone,
                                                                       bool pruned) {
  Result<ZoneConfig> canonical = CanonicalizeZone(zone);
  if (!canonical.ok()) {
    return Result<std::shared_ptr<const LiftedZone>>::Error(canonical.error());
  }
  const char* mode_key = pruned ? "|pruned|" : "|";
  std::string key = StrCat(EngineVersionName(version), mode_key, canonical.value().ToText());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = zones_.find(key);
    if (it != zones_.end()) {
      ++stats_.zone_cache_hits;
      return it->second;
    }
  }
  // Build outside the lock: lifting is the expensive part and GetEngine
  // below takes the same mutex.
  std::shared_ptr<const CompiledEngine> engine =
      pruned ? GetPrunedEngine(version)->engine : GetEngine(version);
  auto lifted = std::make_shared<LiftedZone>();
  lifted->zone = std::move(canonical).value();
  lifted->image =
      BuildHeapImage(lifted->zone, &lifted->interner, engine->types(), &lifted->memory);
  lifted->max_owner_labels = MaxOwnerLabels(lifted->zone);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = zones_.emplace(key, lifted);
  if (inserted) {
    ++stats_.zone_lifts;
  } else {
    ++stats_.zone_cache_hits;  // another thread lifted it first; use theirs
  }
  return std::shared_ptr<const LiftedZone>(it->second);
}

std::shared_ptr<const ExploreResult> VerifyContext::FindSpecExploration(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spec_explorations_.find(key);
  if (it == spec_explorations_.end()) {
    return nullptr;
  }
  ++stats_.spec_cache_hits;
  return it->second;
}

std::shared_ptr<const ExploreResult> VerifyContext::AddSpecExploration(
    const std::string& key, std::shared_ptr<const ExploreResult> exploration) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = spec_explorations_.emplace(key, std::move(exploration));
  if (inserted) {
    ++stats_.spec_explorations;
  } else {
    ++stats_.spec_cache_hits;  // another thread explored it first; use theirs
  }
  return it->second;
}

VerifyContext::CacheStats VerifyContext::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

VerificationReport RunVerifyPipeline(VerifyContext* context, EngineVersion version,
                                     const ZoneConfig& zone,
                                     const VerifyOptions& caller_options) {
  VerifyOptions options = caller_options;
  // Store resolution first: an active store upgrades a kDirect layering to
  // the full cache+presolve stack (persistence with nothing to persist would
  // be pointless), but DNSV_SOLVER_FORCE is applied after and still wins.
  StoreBinding binding = ResolveStore(options);
  if (binding.active() && options.solver.layering == SolverLayering::kDirect) {
    options.solver.layering = SolverLayering::kCachePresolve;
  }
  // DNSV_SOLVER_FORCE lets CI and ad-hoc runs override the solver layering
  // without touching call sites (e.g. forcing shadow validation).
  options.solver = ApplySolverEnvOverride(options.solver);

  double start = ElapsedSeconds();

  // Content keys for this run. An invalid zone cannot be hashed; the store
  // is dropped and the lift stage reports the abort exactly as before.
  std::string zone_hash;
  std::string options_digest;
  std::string report_key;
  if (binding.active()) {
    Result<std::string> hashed = CanonicalZoneHashHex(zone);
    if (hashed.ok()) {
      zone_hash = hashed.value();
      options_digest = VerifyOptionsDigest(options);
      report_key = ReportKey(EngineSourceHashHex(version), zone_hash, options_digest);
    } else {
      binding = StoreBinding{};
    }
  }

  VerificationReport report;
  report.version = version;
  report.incremental.store_enabled = binding.active();

  QueryCache* query_cache =
      options.solver.cache != nullptr ? options.solver.cache : QueryCache::Global();
  if (binding.read_allowed() && options.solver.layering != SolverLayering::kDirect) {
    report.incremental.qcache_entries_loaded =
        EnsureQueryCacheLoaded(binding.store, query_cache);
  }

  // Janus-style replay: when the (sources, zone, options) key has a stored
  // report, nothing this run could compute differs from it — serve it
  // verbatim. A malformed or version-mismatched payload is a miss (the
  // corruption policy), and the run proceeds cold.
  if (binding.read_allowed()) {
    if (std::optional<std::string> stored =
            binding.store->Get(kReportArtifactKind, report_key)) {
      VerificationReport replayed;
      int64_t functions_total = 0;
      int64_t layers_total = 0;
      if (ParseReport(*stored, &replayed, &functions_total, &layers_total) &&
          replayed.version == version) {
        replayed.incremental = report.incremental;
        replayed.incremental.replayed = true;
        replayed.incremental.functions_total = functions_total;
        replayed.incremental.functions_reused = functions_total;
        replayed.incremental.layers_total = layers_total;
        replayed.incremental.layers_reused = layers_total;
        replayed.total_seconds = ElapsedSeconds() - start;
        return replayed;
      }
    }
  }

  // --- CompileStage (+ PruneStage when options.prune) ---
  VerifyContext::CacheStats stats_before = context->cache_stats();
  std::shared_ptr<const CompiledEngine> engine;
  if (options.prune) {
    std::shared_ptr<const PrunedEngine> pruned =
        context->GetPrunedEngine(version, binding.store, binding.read_allowed());
    engine = pruned->engine;
    report.incremental.summaries_reused = pruned->summaries_from_store;
    report.incremental.prune_fingerprint_checked = pruned->prune_fingerprint_checked;
    VerifyContext::CacheStats stats_mid = context->cache_stats();
    bool cached = stats_mid.prune_cache_hits > stats_before.prune_cache_hits;
    report.stages.push_back(MakeStage("compile", cached ? 0 : pruned->compile_seconds, cached));
    StageStats prune_stage = MakeStage("prune", cached ? 0 : pruned->prune_seconds, cached);
    prune_stage.panics_discharged = pruned->stats.panics_discharged;
    prune_stage.paths_pruned = pruned->stats.PathsPruned();
    report.stages.push_back(prune_stage);
    report.pruned = true;
    report.analysis = pruned->analysis;
  } else {
    engine = context->GetEngine(version);
    VerifyContext::CacheStats stats_mid = context->cache_stats();
    report.stages.push_back(
        MakeStage("compile", ElapsedSeconds() - start,
                  stats_mid.engine_cache_hits > stats_before.engine_cache_hits));
  }

  // --- ZoneLiftStage ---
  VerifyContext::CacheStats stats_mid = context->cache_stats();
  double lift_start = ElapsedSeconds();
  Result<std::shared_ptr<const LiftedZone>> lifted_result =
      context->GetLiftedZone(version, zone, options.prune);
  if (!lifted_result.ok()) {
    report.aborted = true;
    report.abort_reason = lifted_result.error();
    report.total_seconds = ElapsedSeconds() - start;
    return report;
  }
  std::shared_ptr<const LiftedZone> lifted = std::move(lifted_result).value();
  VerifyContext::CacheStats stats_after = context->cache_stats();
  report.stages.push_back(MakeStage("lift", ElapsedSeconds() - lift_start,
                                    stats_after.zone_cache_hits > stats_mid.zone_cache_hits));

  // --- DiffStage (store only): structural hashes -> dirty set ---
  // Cone hashes over the module actually being explored, checked against the
  // store's per-function / per-layer exploration markers for this
  // (zone, options) pair. In incremental mode a marker hit means "this cone
  // was fully explored by an earlier run under identical conditions"; cold
  // and shadow modes treat everything as dirty by not reading. Markers for
  // shared library layers are keyed purely by content, so a warm run of one
  // version reuses the markers another version wrote. The spec cache below
  // keys on the same manifest.
  bool spec_needed = !options.safety_only;
  bool spec_cacheable = spec_needed && binding.mode != StoreMode::kShadow;
  std::vector<std::pair<std::string, uint64_t>> function_cones;
  std::vector<std::pair<std::string, uint64_t>> layer_cones;
  double diff_start = ElapsedSeconds();
  ModuleManifest manifest;
  if (binding.active() || spec_cacheable) {
    manifest = BuildModuleManifest(engine->module());
  }
  if (binding.active()) {
    CallGraph graph = CallGraph::Build(engine->module());
    for (int node : graph.ReachableFrom(EngineAnalysisRoots())) {
      const std::string& name = graph.function(node).name();
      auto it = manifest.cone_hash.find(name);
      if (it != manifest.cone_hash.end()) {
        function_cones.emplace_back(name, it->second);
      }
    }
    std::sort(function_cones.begin(), function_cones.end());
    for (const LayerInfo& layer : EngineLayers(version)) {
      layer_cones.emplace_back(layer.name, CombineConeHashes(manifest, layer.functions));
    }
    IncrementalStats& inc = report.incremental;
    inc.functions_total = static_cast<int64_t>(function_cones.size());
    inc.layers_total = static_cast<int64_t>(layer_cones.size());
    for (const auto& [name, cone] : function_cones) {
      if (binding.read_allowed() &&
          binding.store->Contains(kFunctionMarkerKind,
                                  FunctionMarkerKey(cone, zone_hash, options_digest))) {
        ++inc.functions_reused;
      } else {
        inc.dirty_functions.push_back(name);
      }
    }
    for (const auto& [name, cone] : layer_cones) {
      if (binding.read_allowed() &&
          binding.store->Contains(kLayerMarkerKind,
                                  LayerMarkerKey(cone, zone_hash, options_digest))) {
        ++inc.layers_reused;
      } else {
        inc.dirty_layers.push_back(name);
      }
    }
    report.stages.push_back(MakeStage("diff", ElapsedSeconds() - diff_start));
  }

  // --- ExploreStage: engine and spec workers, serial or concurrent ---
  // Workers are fully isolated (private TermArena + SolverSession + lifted
  // heap), so the parallel schedule produces byte-identical results. The
  // spec side is served from the context when an earlier run explored the
  // same spec cone over the same zone and options (docs/INCREMENTAL.md);
  // store shadow mode bypasses that cache, so its report comparison pits a
  // report built with reuse against a fresh one.
  std::string spec_key;
  std::shared_ptr<const ExploreResult> spec;
  if (spec_cacheable) {
    spec_key = SpecExplorationKey(manifest, *engine, *lifted, VerifyOptionsDigest(options));
    spec = context->FindSpecExploration(spec_key);
  }
  bool explore_spec = spec_needed && spec == nullptr;
  ExploreResult engine_side;
  ExploreResult spec_side;
  report.explored_in_parallel = options.parallel_explore && explore_spec;
  if (report.explored_in_parallel) {
    std::thread spec_thread(
        [&] { spec_side = RunExploreWorker(*engine, *lifted, options, /*spec_side=*/true); });
    engine_side = RunExploreWorker(*engine, *lifted, options, /*spec_side=*/false);
    spec_thread.join();
  } else {
    engine_side = RunExploreWorker(*engine, *lifted, options, /*spec_side=*/false);
    if (explore_spec) {
      spec_side = RunExploreWorker(*engine, *lifted, options, /*spec_side=*/true);
    }
  }
  if (explore_spec && !spec_side.aborted) {
    auto compact = std::make_shared<const ExploreResult>(Compact(spec_side));
    spec = spec_cacheable ? context->AddSpecExploration(spec_key, std::move(compact))
                          : std::move(compact);
    spec_side.arena.reset();
  }
  // The spec side's stage stats and counters: this run's worker, or on a hit
  // the cached exploration, which carries the counters but no time or
  // solver work, so the report's solver totals count only what this run did.
  const ExploreResult& spec_run = spec_needed && !explore_spec ? *spec : spec_side;
  report.stages.push_back(
      MakeStage("explore.engine", engine_side.seconds, false, engine_side.solver));
  if (spec_needed) {
    report.stages.push_back(MakeStage("explore.spec", spec_run.seconds,
                                      /*from_cache=*/!explore_spec, spec_run.solver));
  }
  report.solver += engine_side.solver;
  report.solver += spec_run.solver;
  report.summaries_computed = engine_side.summaries_computed + spec_run.summaries_computed;
  report.summary_applications =
      engine_side.summary_applications + spec_run.summary_applications;
  report.manual_specs_verified = engine_side.manual_specs_verified;
  report.spec_substitutions = engine_side.spec_substitutions + spec_run.spec_substitutions;
  if (engine_side.aborted || spec_side.aborted) {
    report.aborted = true;
    report.abort_reason =
        engine_side.aborted ? engine_side.abort_reason : spec_side.abort_reason;
    report.total_seconds = ElapsedSeconds() - start;
    return report;
  }
  report.engine_paths = static_cast<int64_t>(engine_side.paths.size());
  report.spec_paths = spec_needed ? static_cast<int64_t>(spec->paths.size()) : 0;

  // --- CompareStage ---
  // A fresh arena + solver; both workers' paths are imported into it with
  // their internal variables renamed apart and the shared inputs unified.
  double compare_start = ElapsedSeconds();
  TermArena arena;
  SolverSession solver(&arena, options.solver);
  int qname_capacity =
      static_cast<int>(lifted->max_owner_labels) + options.extra_qname_labels;
  SymbolicIntList qname =
      MakeSymbolicIntList(&arena, "qname", qname_capacity, LabelInterner::kWildcardCode,
                          lifted->interner.max_code());
  SymbolicInt qtype = MakeSymbolicInt(&arena, "qtype", 1, 255);
  solver.Assert(qname.constraints);
  solver.Assert(qtype.constraints);
  std::vector<ExploredPath> engine_paths = ImportPaths(engine_side, "eng", &arena);
  std::vector<ExploredPath> spec_paths;
  if (spec_needed) {
    spec_paths = ImportPaths(*spec, "spec", &arena);
  }
  engine_side.arena.reset();
  spec.reset();

  if (options.check_path_coverage) {
    // Full-path meta-check: the disjunction of path conditions covers the
    // input constraints, and no two paths overlap.
    std::vector<Term> pcs;
    pcs.reserve(engine_paths.size());
    for (const ExploredPath& path : engine_paths) {
      pcs.push_back(path.pc);
    }
    Term covered = arena.OrN(pcs);
    if (solver.CheckAssuming(arena.Not(covered)) != SatResult::kUnsat) {
      report.aborted = true;
      report.abort_reason = "full-path meta-check failed: inputs escape every path";
      report.total_seconds = ElapsedSeconds() - start;
      return report;
    }
    for (size_t i = 0; i < pcs.size(); ++i) {
      for (size_t j = i + 1; j < pcs.size(); ++j) {
        if (solver.CheckAssuming(arena.And(pcs[i], pcs[j])) != SatResult::kUnsat) {
          report.aborted = true;
          report.abort_reason =
              StrCat("full-path meta-check failed: paths ", i, " and ", j, " overlap");
          report.total_seconds = ElapsedSeconds() - start;
          return report;
        }
      }
    }
    report.path_coverage_checked = true;
  }

  Confirmer confirmer(*engine, *lifted, arena, qname.value, qtype.value, &report,
                      options.max_issues);

  // Safety: feasible engine paths into a panic block.
  for (const ExploredPath& engine_path : engine_paths) {
    if (confirmer.full()) break;
    if (engine_path.kind != PathOutcome::Kind::kPanicked) continue;
    if (solver.CheckAssuming(engine_path.pc) != SatResult::kSat) {
      continue;  // defensive; forks only take feasible sides
    }
    Model model = solver.GetModel();
    VerificationIssue issue;
    issue.kind = VerificationIssue::Kind::kSafety;
    issue.description = "reachable panic block: " + engine_path.panic_message;
    confirmer.Add(std::move(issue), &model);
  }

  // Safety on the specification side, then functional equivalence of every
  // compatible (engine path, spec path) pair.
  if (spec_needed) {
    for (const ExploredPath& spec_path : spec_paths) {
      if (confirmer.full()) break;
      if (spec_path.kind != PathOutcome::Kind::kPanicked) continue;
      VerificationIssue issue;
      issue.kind = VerificationIssue::Kind::kSafety;
      issue.description = "specification panics: " + spec_path.panic_message;
      if (solver.CheckAssuming(spec_path.pc) == SatResult::kSat) {
        Model model = solver.GetModel();
        confirmer.Add(std::move(issue), &model);
      } else {
        confirmer.Add(std::move(issue), nullptr);
      }
    }
    // Pair skip (docs/SMT.md): with the interval pre-solver in the stack, a
    // pair whose two path conditions' var⋈const bounds or boolean literals
    // already conflict is one its phase 1 refutes without reaching Z3, so
    // the pair is dropped before its equality term is built. Shadow
    // validation still sends each such pair to the solver and insists on
    // UNSAT.
    const bool skip_disjoint = options.solver.layering == SolverLayering::kCachePresolve;
    std::vector<LiteralBounds> spec_bounds;
    if (skip_disjoint) {
      spec_bounds.reserve(spec_paths.size());
      for (const ExploredPath& spec_path : spec_paths) {
        spec_bounds.emplace_back(arena);
        spec_bounds.back().Add(spec_path.pc);
      }
    }
    for (const ExploredPath& engine_path : engine_paths) {
      if (confirmer.full()) break;
      if (engine_path.kind != PathOutcome::Kind::kReturned) continue;
      LiteralBounds engine_bounds(arena);
      if (skip_disjoint) engine_bounds.Add(engine_path.pc);
      for (size_t j = 0; j < spec_paths.size(); ++j) {
        const ExploredPath& spec_path = spec_paths[j];
        if (confirmer.full()) break;
        if (spec_path.kind != PathOutcome::Kind::kReturned) continue;
        bool disjoint = skip_disjoint && engine_bounds.ConflictsWith(spec_bounds[j]);
        if (disjoint && !options.solver.shadow_validate) continue;
        Term equal = SymValueEqTerm(engine_path.response, spec_path.response, &arena);
        Term mismatch = arena.AndN({engine_path.pc, spec_path.pc, arena.Not(equal)});
        SatResult verdict = solver.CheckAssuming(mismatch);
        if (disjoint && verdict != SatResult::kUnsat) {
          DNSV_LOG(kError) << "compare pair skip shadow mismatch: solver="
                           << static_cast<int>(verdict);
          DNSV_CHECK_MSG(!options.solver.shadow_fatal,
                         "unsound compare pair skip (shadow validation)");
        }
        if (verdict == SatResult::kSat) {
          Model model = solver.GetModel();
          VerificationIssue issue;
          issue.kind = VerificationIssue::Kind::kFunctional;
          issue.description = "engine response differs from rrlookup specification";
          confirmer.Add(std::move(issue), &model);
        }
      }
    }
  }

  double compare_wall = ElapsedSeconds() - compare_start;
  report.stages.push_back(
      MakeStage("compare", compare_wall - confirmer.seconds(), false, solver.stats()));
  report.stages.push_back(MakeStage("confirm", confirmer.seconds()));
  report.solver += solver.stats();

  report.total_seconds = ElapsedSeconds() - start;
  report.verified = !report.aborted && report.issues.empty();

  // --- Store write-back (successful full runs only) ---
  if (binding.active() && !report.aborted) {
    // Shadow mode: before overwriting, assert this fresh run agrees byte for
    // byte (on the normalized text) with what an earlier run stored under
    // the same key — the end-to-end staleness gate for the whole store.
    if (binding.mode == StoreMode::kShadow) {
      if (std::optional<std::string> stored =
              binding.store->Get(kReportArtifactKind, report_key)) {
        VerificationReport prior;
        int64_t prior_functions = 0;
        int64_t prior_layers = 0;
        if (ParseReport(*stored, &prior, &prior_functions, &prior_layers)) {
          DNSV_CHECK_MSG(NormalizedReportText(prior) == NormalizedReportText(report),
                         StrCat("artifact-store shadow mismatch: stored report for ",
                                EngineVersionName(version),
                                " disagrees with a fresh verification"));
          report.incremental.shadow_checked = true;
        }
      }
    }
    // Every marker is (re)written — reused ones too, so a hit refreshes the
    // GC's LRU clock and an interrupted earlier run cannot leave holes.
    for (const auto& [name, cone] : function_cones) {
      ArtifactEncoder enc;
      enc.Tag("fnmark");
      enc.Str(name);
      enc.U64(cone);
      binding.store->Put(kFunctionMarkerKind,
                         FunctionMarkerKey(cone, zone_hash, options_digest), enc.Take());
    }
    for (const auto& [name, cone] : layer_cones) {
      ArtifactEncoder enc;
      enc.Tag("laymark");
      enc.Str(name);
      enc.U64(cone);
      binding.store->Put(kLayerMarkerKind,
                         LayerMarkerKey(cone, zone_hash, options_digest), enc.Take());
    }
    binding.store->Put(kReportArtifactKind, report_key,
                       SerializeReport(report, report.incremental.functions_total,
                                       report.incremental.layers_total));
    if (options.solver.layering != SolverLayering::kDirect) {
      FlushQueryCache(binding.store, query_cache);
    }
  }
  return report;
}

}  // namespace dnsv
