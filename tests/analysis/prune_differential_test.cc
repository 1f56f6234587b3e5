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
// The concrete differential covers both entry points of src/analysis/prune.h:
// PruneModule as the pipeline configures it (the interprocedural suite
// rooted at EngineAnalysisRoots) and the intraprocedural PruneFunction
// applied to every function on its own.
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

// The configuration the verifier's pipeline uses: SCCP + summaries + escape
// facts, rooted at what the drivers actually invoke.
PruneStats PruneLikeThePipeline(Module* module) {
  PruneOptions options;
  options.entry_points = EngineAnalysisRoots();
  return PruneModule(module, options, nullptr);
}

// The intraprocedural domain alone, one function at a time.
PruneStats PruneEachFunction(Module* module) {
  PruneStats stats;
  for (const auto& fn : module->functions()) {
    stats += PruneFunction(*module, fn.get());
  }
  return stats;
}

// Runs the probe matrix on unpruned vs pruned; returns the probe count.
int ExpectPrunedMatchesBaseline(EngineVersion version, const ZoneConfig& zone, uint64_t seed,
                                PruneStats (*prune)(Module*)) {
  ZoneConfig canonical = CanonicalizeZone(zone).value();
  ModuleHarness baseline(CompiledEngine::Compile(version), canonical);

  std::unique_ptr<CompiledEngine> pruned_engine = CompiledEngine::Compile(version);
  PruneStats stats = prune(&pruned_engine->mutable_module());
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

// Every function pruned on its own by the intraprocedural PruneFunction.
class PrunedInterpreterDifferential : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(PrunedInterpreterDifferential, ProbeMatrixIdentical) {
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), Figure11Zone(), 11, PruneEachFunction), 100);
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), BugHuntZone(), 13, PruneEachFunction), 100);
}

INSTANTIATE_TEST_SUITE_P(Versions, PrunedInterpreterDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

// The module as the pipeline prunes it (SCCP + summaries + escape facts)
// must also be observably identical to the unpruned one.
class InterprocPrunedInterpreterDifferential
    : public ::testing::TestWithParam<EngineVersion> {};

TEST_P(InterprocPrunedInterpreterDifferential, ProbeMatrixIdentical) {
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), Figure11Zone(), 11, PruneLikeThePipeline),
            100);
  EXPECT_GT(ExpectPrunedMatchesBaseline(GetParam(), BugHuntZone(), 13, PruneLikeThePipeline),
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
// counterexamples, the golden version stays verified — while the analysis
// suite does its work on every version.
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
  // The prune stage carries the pruner's counters.
  const StageStats* prune = pruned.FindStage("prune");
  ASSERT_NE(prune, nullptr);
  EXPECT_GT(prune->panics_discharged, 0);
  EXPECT_GE(prune->paths_pruned, prune->panics_discharged);
  // The per-pass analysis stats are reported, and the interprocedural facts
  // are there: feature gates fold and summaries find pure functions.
  EXPECT_TRUE(base.analysis.IsZero());
  EXPECT_FALSE(pruned.analysis.IsZero());
  EXPECT_GT(pruned.analysis.sccp_branches_folded, 0)
      << "feature gates must fold on every version";
  EXPECT_GT(pruned.analysis.pure_functions, 0);
}

INSTANTIATE_TEST_SUITE_P(Versions, PrunedVerifierDifferential,
                         ::testing::ValuesIn(AllEngineVersions()), VersionTestName);

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
  // The prune stage shows up in the stage breakdown with its counters.
  const StageStats* prune = pruned.FindStage("prune");
  ASSERT_NE(prune, nullptr);
  EXPECT_GT(prune->paths_pruned, 0);
  EXPECT_GT(prune->panics_discharged, 0);
}

}  // namespace
}  // namespace dnsv
