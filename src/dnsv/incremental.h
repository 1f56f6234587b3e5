// The pipeline's store-facing side: content keys, report serialization, and
// the normalized digest that defines "byte-identical reports".
//
// Key discipline (docs/INCREMENTAL.md): every key spells out the schema
// version plus hashes of everything the artifact's content depends on —
//
//   report     src-hash(version sources) + zone hash + options digest
//   fnmark     function cone hash + zone hash + options digest
//   laymark    layer cone hash + zone hash + options digest
//   interproc  pre-prune ModuleFingerprint + analysis-roots hash
//   prune      pre-prune ModuleFingerprint; payload holds the
//              post-prune fingerprint, cross-checked on warm runs
//
// so a changed engine source, zone, option set, or serialization schema can
// only ever miss. Replaying a hit is sound because the keyed inputs
// determine the artifact's content byte for byte (the pipeline is
// deterministic by construction; tests/dnsv/incremental_test.cc and the
// shadow mode enforce it).
#ifndef DNSV_DNSV_INCREMENTAL_H_
#define DNSV_DNSV_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnsv/verifier.h"
#include "src/store/hash.h"
#include "src/store/store.h"

namespace dnsv {

class QueryCache;

// Artifact kinds (subdirectories of the store root).
inline constexpr char kReportArtifactKind[] = "report";
inline constexpr char kFunctionMarkerKind[] = "fnmark";
inline constexpr char kLayerMarkerKind[] = "laymark";
inline constexpr char kInterprocArtifactKind[] = "interproc";
inline constexpr char kPruneCheckKind[] = "prune";

// Bump to invalidate every dnsv-owned artifact at once (serialization or
// semantics changes that the content hashes cannot see).
inline constexpr char kStoreSchemaVersion[] = "v3";

// The store + mode one pipeline run will use, after resolving defaults
// (VerifyOptions.store vs DNSV_STORE_DIR) and the DNSV_STORE_FORCE override.
struct StoreBinding {
  ArtifactStore* store = nullptr;
  StoreMode mode = StoreMode::kOff;

  bool active() const { return store != nullptr && mode != StoreMode::kOff; }
  // Whether stored reports may be replayed (shadow/cold recompute instead).
  bool read_allowed() const { return mode == StoreMode::kIncremental; }
};

StoreBinding ResolveStore(const VerifyOptions& options);

// Hash of the engine version's MiniGo source units — computable without
// compiling, which is what lets a warm report replay skip the frontend too.
std::string EngineSourceHashHex(EngineVersion version);

// Digest of every option that can change the report's content. Deliberately
// excludes parallel_explore (byte-identical by construction) and run-local
// solver plumbing that cannot alter verdicts (cache instance, shadow_fatal).
std::string VerifyOptionsDigest(const VerifyOptions& options);

// Hash of the canonicalized zone text; error when the zone is invalid.
Result<std::string> CanonicalZoneHashHex(const ZoneConfig& zone);

std::string ReportKey(const std::string& source_hash, const std::string& zone_hash,
                      const std::string& options_digest);
std::string FunctionMarkerKey(uint64_t cone_hash, const std::string& zone_hash,
                              const std::string& options_digest);
std::string LayerMarkerKey(uint64_t layer_cone_hash, const std::string& zone_hash,
                           const std::string& options_digest);
std::string InterprocKey(uint64_t module_fingerprint,
                         const std::vector<std::string>& entry_points);
std::string PruneCheckKey(uint64_t module_fingerprint);

// Full round-trip of a VerificationReport (issues, wire packets, stages,
// solver counters, analysis stats) plus the dirty-set totals the replayed
// IncrementalStats needs. Run-local fields (IncrementalStats itself) are not
// serialized.
std::string SerializeReport(const VerificationReport& report, int64_t functions_total,
                            int64_t layers_total);
bool ParseReport(const std::string& payload, VerificationReport* report,
                 int64_t* functions_total, int64_t* layers_total);

// The canonical text two equivalent runs must agree on byte for byte:
// verdict, issues (descriptions, counterexamples, classifications, wire
// packets), path counts, summary/spec/prune accounting, and analysis outcome
// counters. Wall-clock fields, cache provenance, and Z3-level check counts
// are excluded — they measure the run, not the result (a cache-warm run
// reaches Z3 less often while proving exactly the same facts).
std::string NormalizedReportText(const VerificationReport& report);

// Imports the store's persisted solver verdicts into `cache` once per
// (cache, store root); returns entries newly loaded (0 when already done).
int64_t EnsureQueryCacheLoaded(ArtifactStore* store, QueryCache* cache);

}  // namespace dnsv

#endif  // DNSV_DNSV_INCREMENTAL_H_
