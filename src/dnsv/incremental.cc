#include "src/dnsv/incremental.h"

#include <cstdlib>
#include <string_view>
#include <utility>

#include "src/dns/zone.h"
#include "src/engine/sources/sources.h"
#include "src/smt/query_cache.h"
#include "src/store/codec.h"
#include "src/store/qcache_io.h"
#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {

namespace {

// Tamper bound on every decoded count: no legitimate artifact comes close,
// and a bit-flipped length must not turn into a multi-gigabyte allocation.
constexpr int64_t kMaxDecodedCount = 4096;

std::string BytesToStr(const std::vector<uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::vector<uint8_t> StrToBytes(const std::string& str) {
  return std::vector<uint8_t>(str.begin(), str.end());
}

// Counterexample qtypes are model values over the full symbolic range
// [1, 255], not just the named RrType enumerators, so only the wire-level
// range is validated.
bool ValidRrType(int64_t value) { return value >= 0 && value <= 255; }

void EncodeSolverStats(ArtifactEncoder* enc, const SolverStats& stats) {
  enc->Int(stats.queries);
  enc->Int(stats.z3_checks);
  enc->Double(stats.solve_seconds);
  enc->Int(stats.cache_hits);
  enc->Int(stats.cache_misses);
  enc->Int(stats.cache_disk_hits);
  enc->Int(stats.presolver_discharges);
  enc->Int(stats.asserts_deduped);
  enc->Int(stats.unknowns);
  enc->Int(stats.timeout_retries);
  enc->Int(stats.model_replays);
  enc->Int(stats.shadow_checks);
  enc->Int(stats.shadow_mismatches);
}

void DecodeSolverStats(ArtifactDecoder* dec, SolverStats* stats) {
  stats->queries = dec->Int();
  stats->z3_checks = dec->Int();
  stats->solve_seconds = dec->Double();
  stats->cache_hits = dec->Int();
  stats->cache_misses = dec->Int();
  stats->cache_disk_hits = dec->Int();
  stats->presolver_discharges = dec->Int();
  stats->asserts_deduped = dec->Int();
  stats->unknowns = dec->Int();
  stats->timeout_retries = dec->Int();
  stats->model_replays = dec->Int();
  stats->shadow_checks = dec->Int();
  stats->shadow_mismatches = dec->Int();
}

void EncodeAnalysisStats(ArtifactEncoder* enc, const AnalysisStats& stats) {
  enc->Double(stats.callgraph_seconds);
  enc->Double(stats.summary_seconds);
  enc->Double(stats.sccp_seconds);
  enc->Double(stats.alias_seconds);
  enc->Double(stats.escape_seconds);
  enc->Int(stats.functions);
  enc->Int(stats.pure_functions);
  enc->Int(stats.nonnull_returns);
  enc->Int(stats.const_returns);
  enc->Int(stats.param_fact_functions);
  enc->Int(stats.protected_allocs);
  enc->Int(stats.sccp_branches_folded);
}

void DecodeAnalysisStats(ArtifactDecoder* dec, AnalysisStats* stats) {
  stats->callgraph_seconds = dec->Double();
  stats->summary_seconds = dec->Double();
  stats->sccp_seconds = dec->Double();
  stats->alias_seconds = dec->Double();
  stats->escape_seconds = dec->Double();
  stats->functions = dec->Int();
  stats->pure_functions = dec->Int();
  stats->nonnull_returns = dec->Int();
  stats->const_returns = dec->Int();
  stats->param_fact_functions = dec->Int();
  stats->protected_allocs = dec->Int();
  stats->sccp_branches_folded = dec->Int();
}

std::string PacketHex(const std::vector<uint8_t>& bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace

StoreBinding ResolveStore(const VerifyOptions& options) {
  StoreBinding binding;
  binding.store = options.store != nullptr ? options.store : ArtifactStore::FromEnv();
  StoreMode mode = options.store_mode;
  // DNSV_STORE_FORCE wins over even an explicitly set option, matching
  // DNSV_SOLVER_FORCE: CI flips whole suites into shadow without touching
  // every call site.
  if (const char* force = std::getenv("DNSV_STORE_FORCE")) {
    std::string_view value(force);
    if (value == "off") {
      mode = StoreMode::kOff;
    } else if (value == "shadow") {
      mode = StoreMode::kShadow;
    } else if (value == "incremental" || value == "on") {
      mode = StoreMode::kIncremental;
    } else {
      DNSV_LOG(kError) << "DNSV_STORE_FORCE=\"" << value
                       << "\" is not one of off|shadow|incremental|on";
      std::abort();
    }
  }
  if (binding.store == nullptr || mode == StoreMode::kOff) {
    return StoreBinding{};  // inactive: no store pointer, kOff
  }
  binding.mode = mode;
  return binding;
}

std::string EngineSourceHashHex(EngineVersion version) {
  uint64_t hash = kFnv1a64Seed;
  for (const auto& [name, text] : EngineSources(version)) {
    // Unit separators keep ("ab","c") distinct from ("a","bc").
    hash = Fnv1a64(name, hash);
    hash = Fnv1a64("\x1f", hash);
    hash = Fnv1a64(text, hash);
    hash = Fnv1a64("\x1e", hash);
  }
  return HexU64(hash);
}

std::string VerifyOptionsDigest(const VerifyOptions& options) {
  // Every field here changes what the pipeline computes; the digest must be
  // taken after ApplySolverEnvOverride and the store-driven layering upgrade
  // so the key matches what actually ran. shadow_validate is included even
  // though verdicts are unchanged: a shadow run's report differs in its
  // shadow_checks counters, and those are serialized.
  return StrCat("q", options.extra_qname_labels, ".sum", options.use_summaries ? 1 : 0,
                ".spec", options.use_manual_specs ? 1 : 0, ".max", options.max_issues,
                ".safe", options.safety_only ? 1 : 0, ".cov",
                options.check_path_coverage ? 1 : 0, ".prune", options.prune ? 1 : 0, ".lay",
                static_cast<int>(options.solver.layering), ".shadow",
                options.solver.shadow_validate ? 1 : 0, ".to",
                options.solver.check_timeout_ms);
}

Result<std::string> CanonicalZoneHashHex(const ZoneConfig& zone) {
  Result<ZoneConfig> canonical = CanonicalizeZone(zone);
  if (!canonical.ok()) {
    return Result<std::string>::Error(canonical.error());
  }
  return HexU64(Fnv1a64(canonical.value().ToText()));
}

std::string ReportKey(const std::string& source_hash, const std::string& zone_hash,
                      const std::string& options_digest) {
  return StrCat("report|", kStoreSchemaVersion, "|src:", source_hash, "|zone:", zone_hash,
                "|opt:", options_digest);
}

std::string SerializeReport(const VerificationReport& report) {
  ArtifactEncoder enc;
  enc.Tag("report");
  enc.Int(static_cast<int64_t>(report.version));
  enc.Bool(report.verified);
  enc.Bool(report.aborted);
  enc.Str(report.abort_reason);
  enc.Int(static_cast<int64_t>(report.issues.size()));
  for (const VerificationIssue& issue : report.issues) {
    enc.Tag("issue");
    enc.Int(issue.kind == VerificationIssue::Kind::kSafety ? 0 : 1);
    enc.Str(issue.description);
    enc.Str(issue.qname);
    enc.Int(static_cast<int64_t>(issue.qtype));
    enc.Bool(issue.confirmed);
    enc.Str(issue.engine_behavior);
    enc.Str(issue.spec_behavior);
    enc.Str(issue.classification);
    enc.Bool(issue.wire.attempted);
    enc.Bool(issue.wire.reproduced);
    enc.Str(issue.wire.error);
    enc.Str(BytesToStr(issue.wire.query_packet));
    enc.Str(BytesToStr(issue.wire.engine_packet));
    enc.Str(BytesToStr(issue.wire.spec_packet));
  }
  enc.Tag("counters");
  enc.Int(report.engine_paths);
  enc.Int(report.spec_paths);
  enc.Double(report.total_seconds);
  enc.Int(report.summaries_computed);
  enc.Int(report.summary_applications);
  enc.Int(report.manual_specs_verified);
  enc.Int(report.spec_substitutions);
  enc.Bool(report.path_coverage_checked);
  enc.Bool(report.pruned);
  enc.Tag("analysis");
  EncodeAnalysisStats(&enc, report.analysis);
  enc.Tag("stages");
  enc.Bool(report.explored_in_parallel);
  enc.Int(static_cast<int64_t>(report.stages.size()));
  for (const StageStats& stage : report.stages) {
    enc.Str(stage.stage);
    enc.Double(stage.seconds);
    enc.Bool(stage.from_cache);
    enc.Int(stage.panics_discharged);
    enc.Int(stage.paths_pruned);
    EncodeSolverStats(&enc, stage.solver);
  }
  enc.Tag("solver");
  EncodeSolverStats(&enc, report.solver);
  return enc.Take();
}

bool ParseReport(const std::string& payload, VerificationReport* report) {
  ArtifactDecoder dec(payload);
  VerificationReport out;
  dec.Tag("report");
  int64_t version = dec.Int();
  if (version < 0 || version > static_cast<int64_t>(EngineVersion::kV5)) {
    return false;
  }
  out.version = static_cast<EngineVersion>(version);
  out.verified = dec.Bool();
  out.aborted = dec.Bool();
  out.abort_reason = dec.Str();
  int64_t num_issues = dec.Int();
  if (!dec.ok() || num_issues < 0 || num_issues > kMaxDecodedCount) {
    return false;
  }
  out.issues.reserve(static_cast<size_t>(num_issues));
  for (int64_t i = 0; i < num_issues; ++i) {
    VerificationIssue issue;
    dec.Tag("issue");
    int64_t kind = dec.Int();
    if (kind != 0 && kind != 1) return false;
    issue.kind = kind == 0 ? VerificationIssue::Kind::kSafety
                           : VerificationIssue::Kind::kFunctional;
    issue.description = dec.Str();
    issue.qname = dec.Str();
    int64_t qtype = dec.Int();
    if (!ValidRrType(qtype)) return false;
    issue.qtype = static_cast<RrType>(qtype);
    issue.confirmed = dec.Bool();
    issue.engine_behavior = dec.Str();
    issue.spec_behavior = dec.Str();
    issue.classification = dec.Str();
    issue.wire.attempted = dec.Bool();
    issue.wire.reproduced = dec.Bool();
    issue.wire.error = dec.Str();
    issue.wire.query_packet = StrToBytes(dec.Str());
    issue.wire.engine_packet = StrToBytes(dec.Str());
    issue.wire.spec_packet = StrToBytes(dec.Str());
    if (!dec.ok()) return false;
    out.issues.push_back(std::move(issue));
  }
  dec.Tag("counters");
  out.engine_paths = dec.Int();
  out.spec_paths = dec.Int();
  out.total_seconds = dec.Double();
  out.summaries_computed = dec.Int();
  out.summary_applications = dec.Int();
  out.manual_specs_verified = dec.Int();
  out.spec_substitutions = dec.Int();
  out.path_coverage_checked = dec.Bool();
  out.pruned = dec.Bool();
  dec.Tag("analysis");
  DecodeAnalysisStats(&dec, &out.analysis);
  dec.Tag("stages");
  out.explored_in_parallel = dec.Bool();
  int64_t num_stages = dec.Int();
  if (!dec.ok() || num_stages < 0 || num_stages > kMaxDecodedCount) {
    return false;
  }
  out.stages.reserve(static_cast<size_t>(num_stages));
  for (int64_t i = 0; i < num_stages; ++i) {
    StageStats stage;
    stage.stage = dec.Str();
    stage.seconds = dec.Double();
    stage.from_cache = dec.Bool();
    stage.panics_discharged = dec.Int();
    stage.paths_pruned = dec.Int();
    DecodeSolverStats(&dec, &stage.solver);
    if (!dec.ok()) return false;
    out.stages.push_back(std::move(stage));
  }
  dec.Tag("solver");
  DecodeSolverStats(&dec, &out.solver);
  if (!dec.ok() || !dec.AtEnd()) {
    return false;
  }
  *report = std::move(out);
  return true;
}

std::string NormalizedReportText(const VerificationReport& report) {
  std::string out = StrCat("version ", EngineVersionName(report.version), "\n");
  out += StrCat("verified ", report.verified ? 1 : 0, "\n");
  out += StrCat("aborted ", report.aborted ? 1 : 0, " ", report.abort_reason, "\n");
  for (const VerificationIssue& issue : report.issues) {
    out += StrCat("issue ", issue.kind == VerificationIssue::Kind::kSafety ? "safety"
                                                                           : "functional",
                  "\n");
    out += StrCat("  description ", issue.description, "\n");
    out += StrCat("  counterexample ", issue.qname, " ", RrTypeDisplay(issue.qtype),
                  " confirmed=", issue.confirmed ? 1 : 0, "\n");
    out += StrCat("  engine ", issue.engine_behavior, "\n");
    out += StrCat("  spec ", issue.spec_behavior, "\n");
    out += StrCat("  class ", issue.classification, "\n");
    out += StrCat("  wire attempted=", issue.wire.attempted ? 1 : 0,
                  " reproduced=", issue.wire.reproduced ? 1 : 0, " error=", issue.wire.error,
                  "\n");
    out += StrCat("  wire.query ", PacketHex(issue.wire.query_packet), "\n");
    out += StrCat("  wire.engine ", PacketHex(issue.wire.engine_packet), "\n");
    out += StrCat("  wire.spec ", PacketHex(issue.wire.spec_packet), "\n");
  }
  out += StrCat("paths engine=", report.engine_paths, " spec=", report.spec_paths, "\n");
  out += StrCat("summaries computed=", report.summaries_computed,
                " applied=", report.summary_applications, "\n");
  out += StrCat("specs verified=", report.manual_specs_verified,
                " substituted=", report.spec_substitutions, "\n");
  out += StrCat("coverage ", report.path_coverage_checked ? 1 : 0, "\n");
  const StageStats* prune = report.FindStage("prune");
  out += StrCat("prune on=", report.pruned ? 1 : 0,
                " discharged=", prune != nullptr ? prune->panics_discharged : 0,
                " pruned=", prune != nullptr ? prune->paths_pruned : 0, "\n");
  // Analysis outcome counters are deterministic facts about the module;
  // the per-pass seconds are not, so only the counters participate.
  out += StrCat("analysis fns=", report.analysis.functions,
                " pure=", report.analysis.pure_functions,
                " nonnull=", report.analysis.nonnull_returns,
                " const=", report.analysis.const_returns,
                " pfacts=", report.analysis.param_fact_functions,
                " prot=", report.analysis.protected_allocs,
                " folded=", report.analysis.sccp_branches_folded, "\n");
  return out;
}

int64_t EnsureQueryCacheLoaded(ArtifactStore* store, QueryCache* cache) {
  if (store == nullptr || cache == nullptr) {
    return 0;
  }
  if (!cache->MarkLoadedFrom(store->root())) {
    return 0;  // already imported into this cache
  }
  return LoadQueryCache(store, cache);
}

}  // namespace dnsv
