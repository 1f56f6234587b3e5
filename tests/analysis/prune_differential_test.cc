// Soundness gate for the pruning pass, from two independent angles:
//
//  1. Concrete differential: for every engine version, a pruned module must
//     behave byte-identically to the unpruned one under the interpreter —
//     same responses, same panics — across the example zones' probe matrix.
//  2. Verifier differential: the staged pipeline with pruning on must reach
//     the same verdict and the same issue list (byte-identical) as with
//     pruning off, on the bug-hunt zone where the Table-2 bugs surface.
//
// Plus the profit check: on the golden engine, pruning must strictly reduce
// exploration solver checks and report paths_pruned > 0.
//
// The interprocedural mode (PruneOptions::interproc) gets the same treatment
// against two baselines: the unpruned module (concrete differential) and the
// PR-2 intraprocedural pruner (verdict differential + the strictly-more-
// guards dominance check the analysis suite exists for).
#include <gtest/gtest.h>

#include "src/analysis/prune.h"
#include "src/dns/example_zones.h"
#include "src/dns/heap.h"
#include "src/dnsv/pipeline.h"
#include "src/engine/engine.h"
#include "src/engine/sources/sources.h"
#include "src/interp/interp.h"
#include "src/zonegen/zonegen.h"

namespace dnsv {
namespace {

// A server-shaped harness over an explicitly owned (possibly pruned) engine:
// AuthoritativeServer always uses the pristine cached module, so the pruned
// side rebuilds the same glue against its own compiled instance.
class ModuleHarness {
 public:
  ModuleHarness(std::unique_ptr<CompiledEngine> engine, const ZoneConfig& canonical_zone)
      : engine_(std::move(engine)) {
    image_ = BuildHeapImage(canonical_zone, &interner_, engine_->types(), &memory_);
  }

  QueryResult Resolve(const DnsName& qname, RrType qtype) {
    return Run(engine_->resolve_fn(),
               {image_.apex_ptr, image_.origin_labels, QnameValue(qname, &interner_),
                Value::Int(static_cast<int64_t>(qtype))});
  }

  QueryResult Spec(const DnsName& qname, RrType qtype) {
    return Run(engine_->rrlookup_fn(),
               {image_.zone_rrs, image_.origin_labels, QnameValue(qname, &interner_),
                Value::Int(static_cast<int64_t>(qtype))});
  }

 private:
  QueryResult Run(const Function& fn, std::vector<Value> args) {
    Interpreter interp(&engine_->module(), &memory_);
    ExecOutcome outcome = interp.Run(fn, std::move(args));
    QueryResult result;
    if (!outcome.ok()) {
      result.panicked = true;
      result.panic_message = outcome.kind == ExecOutcome::Kind::kStepLimit
                                 ? "step limit exceeded"
                                 : outcome.panic_message;
      return result;
    }
    result.response = DecodeResponse(outcome.return_value, memory_, interner_,
                                     engine_->types());
    return result;
  }

  std::unique_ptr<CompiledEngine> engine_;
  LabelInterner interner_;
  ConcreteMemory memory_;
  HeapImage image_;
};

// The interprocedural configuration the verifier's pipeline uses: SCCP +
// summaries + escape facts, rooted at what the drivers actually invoke.
PruneOptions InterprocOptions() {
  PruneOptions options;
  options.interproc = true;
  options.entry_points = EngineAnalysisRoots();
  return options;
}

// Runs the probe matrix on baseline vs pruned; returns the probe count.
int ExpectPrunedMatchesBaseline(EngineVersion version, const ZoneConfig& zone,
                                uint64_t seed, const PruneOptions& options = {}) {
  ZoneConfig canonical = CanonicalizeZone(zone).value();
  ModuleHarness baseline(CompiledEngine::Compile(version), canonical);

  std::unique_ptr<CompiledEngine> pruned_engine = CompiledEngine::Compile(version);
  PruneStats stats = PruneModule(&pruned_engine->mutable_module(), options, nullptr);
  EXPECT_GT(stats.panics_discharged, 0) << EngineVersionName(version);
  ModuleHarness pruned(std::move(pruned_engine), canonical);

  int probes = 0;
  for (const DnsName& qname : InterestingQueryNames(canonical, seed)) {
    for (RrType qtype : AllQueryTypes()) {
      for (bool spec : {false, true}) {
        QueryResult base = spec ? baseline.Spec(qname, qtype) : baseline.Resolve(qname, qtype);
        QueryResult pr = spec ? pruned.Spec(qname, qtype) : pruned.Resolve(qname, qtype);
        EXPECT_EQ(base.panicked, pr.panicked)
            << EngineVersionName(version) << (spec ? " spec " : " engine ")
            << qname.ToString() << " " << RrTypeName(qtype);
        if (base.panicked && pr.panicked) {
          EXPECT_EQ(base.panic_message, pr.panic_message);
        } else if (!base.panicked && !pr.panicked) {
          EXPECT_EQ(base.response, pr.response)
              << EngineVersionName(version) << (spec ? " spec " : " engine ")
              << qname.ToString() << " " << RrTypeName(qtype);
        }
        ++probes;
      }
    }
  }
  return probes;
}

std::string VersionTestName(const ::testing::TestParamInfo<EngineVersion>& param_info) {
  std::string name = EngineVersionName(param_info.param);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

class PrunedInterpreterDifferential : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(PrunedInterpreterDifferential, ProbeMatrixIdentical) {
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), Figure11Zone(), 11), 100);
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), BugHuntZone(), 13), 100);
}

INSTANTIATE_TEST_SUITE_P(Versions, PrunedInterpreterDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

// The interprocedurally pruned module (SCCP + summaries + escape facts) must
// also be observably identical to the unpruned one under the interpreter.
class InterprocPrunedInterpreterDifferential
    : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(InterprocPrunedInterpreterDifferential, ProbeMatrixIdentical) {
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), Figure11Zone(), 11, InterprocOptions()),
            100);
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), BugHuntZone(), 13, InterprocOptions()),
            100);
}

INSTANTIATE_TEST_SUITE_P(Versions, InterprocPrunedInterpreterDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

std::string IssueDigest(const VerificationReport& report) {
  std::string digest;
  for (const VerificationIssue& issue : report.issues) {
    digest += issue.ToString();
  }
  return digest;
}

class PrunedVerifierDifferential : public ::testing::TestWithParam<EngineVersion> {};

// The Table-2 verdicts — buggy versions stay buggy with the exact same
// counterexamples, the golden version stays verified.
TEST_P(PrunedVerifierDifferential, VerdictAndIssuesUnchangedOnBugHuntZone) {
  VerifyContext context;
  VerifyOptions off;
  off.prune = false;
  VerifyOptions on;
  on.prune = true;
  VerificationReport base = RunVerifyPipeline(&context, GetParam(), BugHuntZone(), off);
  VerificationReport pruned = RunVerifyPipeline(&context, GetParam(), BugHuntZone(), on);
  ASSERT_FALSE(base.aborted) << base.abort_reason;
  ASSERT_FALSE(pruned.aborted) << pruned.abort_reason;
  EXPECT_EQ(base.verified, pruned.verified);
  EXPECT_EQ(IssueDigest(base), IssueDigest(pruned));
  EXPECT_EQ(base.engine_paths, pruned.engine_paths)
      << "discharged guards were never feasible, so path counts must match";
  EXPECT_TRUE(pruned.pruned);
  EXPECT_GT(pruned.panics_discharged, 0);
}

INSTANTIATE_TEST_SUITE_P(Versions, PrunedVerifierDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

// Interprocedural vs intraprocedural pruning under the full pipeline: the
// extra facts may only remove infeasible paths, so verdicts and issue lists
// stay byte-identical while the analysis stage shows up in the report.
class InterprocVerifierDifferential : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(InterprocVerifierDifferential, VerdictAndIssuesMatchBaselinePruner) {
  VerifyContext context;
  VerifyOptions baseline;
  baseline.prune = true;
  baseline.prune_interproc = false;
  VerifyOptions interproc;
  interproc.prune = true;
  interproc.prune_interproc = true;
  VerificationReport base = RunVerifyPipeline(&context, GetParam(), BugHuntZone(), baseline);
  VerificationReport inter = RunVerifyPipeline(&context, GetParam(), BugHuntZone(), interproc);
  ASSERT_FALSE(base.aborted) << base.abort_reason;
  ASSERT_FALSE(inter.aborted) << inter.abort_reason;
  EXPECT_EQ(base.verified, inter.verified);
  EXPECT_EQ(IssueDigest(base), IssueDigest(inter));
  // Dominance: the analysis suite never discharges less than the baseline
  // and never leaves the executor more solver work.
  EXPECT_GE(inter.panics_discharged, base.panics_discharged);
  EXPECT_LE(inter.solver.z3_checks, base.solver.z3_checks);
  // The per-pass analysis stats are reported only in interproc mode.
  EXPECT_TRUE(base.analysis.IsZero());
  EXPECT_FALSE(inter.analysis.IsZero());
  EXPECT_GT(inter.analysis.sccp_branches_folded, 0)
      << "feature gates must fold on every version";
}

INSTANTIATE_TEST_SUITE_P(Versions, InterprocVerifierDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

// The acceptance criterion of the analysis suite, measured directly on the
// prune stats without the pipeline: strictly more guards discharged than the
// PR-2 baseline on at least three of the six versions (in practice: all six),
// never fewer on any.
TEST(InterprocPrune, DischargesStrictlyMoreGuardsThanBaseline) {
  int strictly_more = 0;
  for (EngineVersion version : AllEngineVersions()) {
    std::unique_ptr<CompiledEngine> base_engine = CompiledEngine::Compile(version);
    PruneStats base = PruneModule(&base_engine->mutable_module());

    std::unique_ptr<CompiledEngine> inter_engine = CompiledEngine::Compile(version);
    AnalysisStats analysis;
    PruneStats inter =
        PruneModule(&inter_engine->mutable_module(), InterprocOptions(), &analysis);

    EXPECT_GE(inter.panics_discharged, base.panics_discharged) << EngineVersionName(version);
    if (inter.panics_discharged > base.panics_discharged) ++strictly_more;
    EXPECT_GT(analysis.sccp_branches_folded, 0) << EngineVersionName(version);
    EXPECT_GT(analysis.pure_functions, 0) << EngineVersionName(version);
  }
  EXPECT_GE(strictly_more, 3);
}

TEST(PrunedVerifier, StrictlyFewerSolverChecksOnGolden) {
  VerifyContext context;
  VerifyOptions off;
  off.prune = false;
  VerifyOptions on;
  on.prune = true;
  VerificationReport base =
      RunVerifyPipeline(&context, EngineVersion::kGolden, Figure11Zone(), off);
  VerificationReport pruned =
      RunVerifyPipeline(&context, EngineVersion::kGolden, Figure11Zone(), on);
  ASSERT_TRUE(base.verified) << base.ToString();
  ASSERT_TRUE(pruned.verified) << pruned.ToString();
  EXPECT_LT(pruned.solver.z3_checks, base.solver.z3_checks)
      << "pruning must strictly reduce exploration solver checks";
  EXPECT_GT(pruned.paths_pruned, 0);
  EXPECT_GT(pruned.panics_discharged, 0);
  // The prune stage shows up in the stage breakdown with its counters.
  bool saw_prune_stage = false;
  for (const StageStats& stage : pruned.stages) {
    if (stage.stage == "prune") {
      saw_prune_stage = true;
      EXPECT_EQ(stage.panics_discharged, pruned.panics_discharged);
      EXPECT_EQ(stage.paths_pruned, pruned.paths_pruned);
    }
  }
  EXPECT_TRUE(saw_prune_stage);
}

}  // namespace
}  // namespace dnsv
