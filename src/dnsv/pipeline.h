// The staged verification pipeline (paper Fig. 6), factored for reuse.
//
// The one-shot verifier recompiled the engine and re-lifted the zone on every
// call; at "N versions x M zones" scale that is the dominant waste (Janus
// makes the same observation for incremental DNS verification). The pipeline
// splits the workflow into explicit stages
//
//   CompileStage   source -> AbsIR module            (cached per EngineVersion)
//   ZoneLiftStage  zone -> concrete heap + interner  (cached per version+zone)
//   ExploreStage   full-path symbolic execution of the engine's Resolve and
//                  of the rrlookup specification — two isolated workers that
//                  may run concurrently
//   CompareStage   safety (feasible panic paths) + functional equivalence of
//                  every compatible (engine path, spec path) pair
//   ConfirmStage   decode each violation to a concrete query, re-execute it
//                  on the interpreter, classify in the Table-2 taxonomy
//
// driven by a VerifyContext whose caches persist across runs: verifying N
// versions over M zones compiles each version exactly once, lifts each
// (version, zone) pair exactly once, and explores the spec once per distinct
// (spec cone, zone) — versions that did not touch rrlookup share it.
//
// Threading rule: a worker NEVER shares a TermArena or SolverSession. Each
// ExploreStage worker builds its own arena, solver, and lifted heap (Z3
// contexts are not thread-safe; TermArena is not synchronized). The workers'
// results are merged into the compare stage's arena by TermImporter, which
// renames worker-internal variables (pad.*, havoc.*, sum.*, …) into disjoint
// namespaces while unifying the shared symbolic inputs (qname.*, qtype) by
// name — so the merged formulas mean exactly what they meant per worker.
#ifndef DNSV_DNSV_PIPELINE_H_
#define DNSV_DNSV_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/analysis/prune.h"
#include "src/dnsv/verifier.h"

namespace dnsv {

struct ExploreResult;  // one side's explored paths (pipeline.cc)

// A zone materialized against one engine version's type table: the concrete
// heap (domain tree + flat RR list), the label interner that encoded it, and
// the depth bound for symbolic qnames. Immutable after construction; shared
// by every worker and run that verifies this (version, zone) pair.
struct LiftedZone {
  ZoneConfig zone;  // canonical
  LabelInterner interner;
  ConcreteMemory memory;
  HeapImage image;
  size_t max_owner_labels = 0;
};

// One engine version with the dataflow pruner applied (options.prune). A
// separate compilation from the unpruned cache entry: pruning mutates the
// module in place, and callers that did not opt in must keep seeing the
// frontend's exact output.
struct PrunedEngine {
  std::shared_ptr<const CompiledEngine> engine;
  PruneStats stats;
  AnalysisStats analysis;
  double compile_seconds = 0;
  double prune_seconds = 0;
  // Artifact-store provenance (docs/INCREMENTAL.md): whether the
  // interprocedural facts were replayed from a stored artifact instead of
  // recomputed, and whether the post-prune ModuleFingerprint matched the
  // recorded cold prune (the hash-stability cross-check).
  bool summaries_from_store = false;
  bool prune_fingerprint_checked = false;
};

// Cross-run state of the pipeline: compiled engines per version, lifted
// heaps per (version, canonical zone), spec explorations per (spec cone,
// zone, options). Thread-safe; create one per long-lived workload (bench
// harness, release gate, server fleet) and pass it to every
// RunVerifyPipeline call to amortize the setup stages.
class VerifyContext {
 public:
  VerifyContext() = default;
  VerifyContext(const VerifyContext&) = delete;
  VerifyContext& operator=(const VerifyContext&) = delete;

  // CompileStage: compiles on first use, then serves the cached module.
  std::shared_ptr<const CompiledEngine> GetEngine(EngineVersion version);

  // PruneStage input: compiles a private copy of `version` and runs
  // PruneModule over it on first use (the interprocedural suite — SCCP +
  // summaries + escape facts — rooted at EngineAnalysisRoots), then serves
  // the cached result.
  //
  // With a `store`, the first computation persists the interprocedural facts
  // keyed by the pre-prune ModuleFingerprint (and replays them when
  // `replay_from_store`, skipping the whole-module passes), then cross-checks
  // the post-prune fingerprint against the recorded cold prune; a mismatch
  // discards the replay and recomputes from scratch. The in-memory cache key
  // stays the version: the store only changes how the result is obtained,
  // never what it is.
  std::shared_ptr<const PrunedEngine> GetPrunedEngine(EngineVersion version,
                                                      ArtifactStore* store = nullptr,
                                                      bool replay_from_store = true);

  // ZoneLiftStage: canonicalizes + materializes on first use. Errors
  // (invalid zones) are not cached. Unpruned and pruned lifts are cached
  // under distinct keys — the heap image is built against the respective
  // engine instance's type table.
  Result<std::shared_ptr<const LiftedZone>> GetLiftedZone(EngineVersion version,
                                                          const ZoneConfig& zone,
                                                          bool pruned = false);

  // ExploreStage, spec side: finished (not aborted) explorations of the
  // rrlookup specification, compacted, keyed by everything the spec worker
  // reads — the cone hashes of rrlookup and of the manual-spec pair, the
  // struct layouts, the canonical zone and the options digest. Versions
  // whose spec cone is unchanged share one exploration per zone. Find
  // returns null on a miss; Add keeps the first entry stored under `key`
  // and returns the one the cache holds.
  std::shared_ptr<const ExploreResult> FindSpecExploration(const std::string& key);
  std::shared_ptr<const ExploreResult> AddSpecExploration(
      const std::string& key, std::shared_ptr<const ExploreResult> exploration);

  struct CacheStats {
    int64_t engine_compiles = 0;
    int64_t engine_cache_hits = 0;
    int64_t engine_prunes = 0;
    int64_t prune_cache_hits = 0;
    int64_t zone_lifts = 0;
    int64_t zone_cache_hits = 0;
    int64_t spec_explorations = 0;
    int64_t spec_cache_hits = 0;
  };
  CacheStats cache_stats() const;

 private:
  mutable std::mutex mu_;
  std::map<EngineVersion, std::shared_ptr<const CompiledEngine>> engines_;
  std::map<EngineVersion, std::shared_ptr<const PrunedEngine>> pruned_engines_;
  std::map<std::string, std::shared_ptr<const LiftedZone>> zones_;
  std::map<std::string, std::shared_ptr<const ExploreResult>> spec_explorations_;
  CacheStats stats_;
};

// Runs the full pipeline for one (version, zone) pair. Compile and lift are
// served from `context`; exploration runs serial or parallel per
// `options.parallel_explore` (identical output either way). The report
// carries per-stage timing/solver breakdowns in `stages`.
VerificationReport RunVerifyPipeline(VerifyContext* context, EngineVersion version,
                                     const ZoneConfig& zone, const VerifyOptions& options = {});

}  // namespace dnsv

#endif  // DNSV_DNSV_PIPELINE_H_
