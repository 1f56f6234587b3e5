// Incremental pipeline semantics (docs/INCREMENTAL.md): replay, store
// modes, the DNSV_STORE_FORCE override, report serialization, and the
// warm-vs-cold byte-identity guarantee across every engine version —
// including the buggy ones, whose reports carry counterexamples and wire
// packets.
#include "src/dnsv/incremental.h"

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"

namespace dnsv {
namespace {

namespace fs = std::filesystem;

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("DNSV_STORE_DIR");
    ::unsetenv("DNSV_STORE_FORCE");
    ::unsetenv("DNSV_SOLVER_FORCE");
    root_ = fs::temp_directory_path() /
            ("dnsv-incremental-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  static VerifyOptions Options(ArtifactStore* store, StoreMode mode) {
    VerifyOptions options;
    options.use_summaries = true;
    options.prune = true;
    options.store = store;
    options.store_mode = mode;
    return options;
  }

  // Every run gets a fresh context and a cleared global query cache, so the
  // only state carried between runs is the artifact store itself.
  VerificationReport Run(EngineVersion version, ArtifactStore* store, StoreMode mode) {
    VerifyContext context;
    QueryCache::Global()->Clear();
    return RunVerifyPipeline(&context, version, Figure11Zone(), Options(store, mode));
  }

  fs::path root_;
};

TEST_F(IncrementalTest, ColdThenWarmReplays) {
  ArtifactStore store(root_.string());
  VerificationReport cold = Run(EngineVersion::kGolden, &store, StoreMode::kIncremental);
  ASSERT_FALSE(cold.aborted) << cold.abort_reason;
  EXPECT_TRUE(cold.incremental.store_enabled);
  EXPECT_FALSE(cold.incremental.replayed);
  EXPECT_GT(store.GetStats().total_count, 0);

  VerificationReport warm = Run(EngineVersion::kGolden, &store, StoreMode::kIncremental);
  EXPECT_TRUE(warm.incremental.replayed);
  EXPECT_GT(warm.incremental.layers_total, 0);
  EXPECT_EQ(warm.incremental.layers_reused, warm.incremental.layers_total);
  EXPECT_EQ(NormalizedReportText(warm), NormalizedReportText(cold));
}

// The central soundness claim: for every version — verified and buggy alike
// — the store-free report, the cold store-writing report, and the warm
// replayed report agree byte for byte on the normalized text.
TEST_F(IncrementalTest, WarmVsColdByteIdentityAllVersions) {
  for (EngineVersion version : AllEngineVersions()) {
    SCOPED_TRACE(EngineVersionName(version));
    ArtifactStore store((root_ / EngineVersionName(version)).string());
    VerificationReport bare = Run(version, nullptr, StoreMode::kOff);
    ASSERT_FALSE(bare.aborted) << bare.abort_reason;
    EXPECT_FALSE(bare.incremental.store_enabled);

    VerificationReport cold = Run(version, &store, StoreMode::kIncremental);
    EXPECT_FALSE(cold.incremental.replayed);
    EXPECT_EQ(NormalizedReportText(cold), NormalizedReportText(bare));

    VerificationReport warm = Run(version, &store, StoreMode::kIncremental);
    EXPECT_TRUE(warm.incremental.replayed);
    EXPECT_EQ(NormalizedReportText(warm), NormalizedReportText(bare));
    // Replay serves the full report: issues, classifications, and the wire
    // packets survive the round-trip.
    ASSERT_EQ(warm.issues.size(), bare.issues.size());
    for (size_t i = 0; i < warm.issues.size(); ++i) {
      EXPECT_EQ(warm.issues[i].ToString(), bare.issues[i].ToString());
    }
  }
}

TEST_F(IncrementalTest, OffModeIgnoresTheStore) {
  ArtifactStore store(root_.string());
  VerificationReport report = Run(EngineVersion::kGolden, &store, StoreMode::kOff);
  EXPECT_FALSE(report.incremental.store_enabled);
  EXPECT_EQ(store.GetStats().total_count, 0);
}

// The store keeps only what a later run reads back: the replayable reports
// and the solver verdicts. Those two alone must let a new process (fresh
// context, empty in-memory query cache) replay every report unchanged.
TEST_F(IncrementalTest, StoreHoldsOnlyWhatALaterRunReads) {
  ArtifactStore store(root_.string());
  const EngineVersion versions[] = {EngineVersion::kGolden, EngineVersion::kV1};
  std::vector<std::string> cold_text;
  for (EngineVersion version : versions) {
    VerificationReport cold = Run(version, &store, StoreMode::kIncremental);
    ASSERT_FALSE(cold.aborted) << cold.abort_reason;
    cold_text.push_back(NormalizedReportText(cold));
  }
  std::vector<std::string> kinds;
  for (const auto& [kind, stats] : store.GetStats().kinds) {
    kinds.push_back(kind);
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"qcache", "report"}));

  for (size_t i = 0; i < cold_text.size(); ++i) {
    SCOPED_TRACE(EngineVersionName(versions[i]));
    VerificationReport warm = Run(versions[i], &store, StoreMode::kIncremental);
    EXPECT_TRUE(warm.incremental.replayed);
    EXPECT_EQ(NormalizedReportText(warm), cold_text[i]);
  }
}

TEST_F(IncrementalTest, ShadowModeCrossChecksTheStoredReport) {
  ArtifactStore store(root_.string());
  VerificationReport cold = Run(EngineVersion::kV2, &store, StoreMode::kIncremental);
  ASSERT_FALSE(cold.aborted) << cold.abort_reason;
  // Shadow recomputes everything and asserts byte-identity against the
  // stored report (a mismatch aborts the process), so a clean return with
  // shadow_checked set IS the verification.
  VerificationReport shadow = Run(EngineVersion::kV2, &store, StoreMode::kShadow);
  EXPECT_TRUE(shadow.incremental.shadow_checked);
  EXPECT_FALSE(shadow.incremental.replayed);
  EXPECT_EQ(NormalizedReportText(shadow), NormalizedReportText(cold));
}

// Shadow mode recomputes the spec exploration instead of taking it from the
// context, so its comparison pits a report built with reuse (v3.0 shares
// v2.0's spec cone) against a fresh one.
TEST_F(IncrementalTest, ShadowModeBypassesTheSpecCache) {
  ArtifactStore store(root_.string());
  VerifyContext context;
  VerifyOptions options = Options(&store, StoreMode::kIncremental);
  RunVerifyPipeline(&context, EngineVersion::kV2, Figure11Zone(), options);
  VerificationReport reused =
      RunVerifyPipeline(&context, EngineVersion::kV3, Figure11Zone(), options);
  ASSERT_EQ(context.cache_stats().spec_cache_hits, 1);
  options.store_mode = StoreMode::kShadow;
  VerificationReport shadow =
      RunVerifyPipeline(&context, EngineVersion::kV3, Figure11Zone(), options);
  EXPECT_TRUE(shadow.incremental.shadow_checked);
  EXPECT_EQ(context.cache_stats().spec_cache_hits, 1);
  for (const StageStats& stage : shadow.stages) {
    if (stage.stage == "explore.spec") {
      EXPECT_FALSE(stage.from_cache);
    }
  }
  EXPECT_EQ(NormalizedReportText(shadow), NormalizedReportText(reused));
}

TEST_F(IncrementalTest, EnvForceOffWinsOverExplicitStore) {
  ArtifactStore store(root_.string());
  ::setenv("DNSV_STORE_FORCE", "off", 1);
  VerificationReport report = Run(EngineVersion::kGolden, &store, StoreMode::kIncremental);
  ::unsetenv("DNSV_STORE_FORCE");
  EXPECT_FALSE(report.incremental.store_enabled);
  EXPECT_EQ(store.GetStats().total_count, 0);
}

TEST(IncrementalStoreForce, UnknownModeStopsTheRun) {
  for (const char* value : {"shaddow", "", "cold"}) {
    SCOPED_TRACE(value);
    ::setenv("DNSV_STORE_FORCE", value, 1);
    EXPECT_DEATH(ResolveStore(VerifyOptions{}), "off\\|shadow\\|incremental\\|on");
  }
  ::unsetenv("DNSV_STORE_FORCE");
}

// Janus's core scenario: verify v3.0, then verify the edited engine (dev)
// in the same process. dev did not touch rrlookup's cone, so its spec
// exploration is served from the context; the report is the one a fresh
// process computes.
TEST_F(IncrementalTest, EditedVersionReusesUntouchedLayers) {
  ArtifactStore store(root_.string());
  VerifyContext context;
  QueryCache::Global()->Clear();
  const VerifyOptions options = Options(&store, StoreMode::kIncremental);
  VerificationReport base =
      RunVerifyPipeline(&context, EngineVersion::kV3, Figure11Zone(), options);
  ASSERT_FALSE(base.aborted) << base.abort_reason;

  VerificationReport edited =
      RunVerifyPipeline(&context, EngineVersion::kDev, Figure11Zone(), options);
  EXPECT_FALSE(edited.incremental.replayed);
  const StageStats* spec = edited.FindStage("explore.spec");
  ASSERT_NE(spec, nullptr);
  EXPECT_TRUE(spec->from_cache);
  EXPECT_EQ(NormalizedReportText(edited),
            NormalizedReportText(Run(EngineVersion::kDev, nullptr, StoreMode::kOff)));
}

TEST_F(IncrementalTest, ReportSerializationRoundTrips) {
  // v1.0 is buggy: the report carries issues, classifications, and wire
  // packets — the hard case for the codec.
  VerificationReport report = Run(EngineVersion::kV1, nullptr, StoreMode::kOff);
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  ASSERT_FALSE(report.issues.empty());

  const std::string payload = SerializeReport(report);
  VerificationReport decoded;
  ASSERT_TRUE(ParseReport(payload, &decoded));
  EXPECT_EQ(decoded.version, report.version);
  EXPECT_EQ(NormalizedReportText(decoded), NormalizedReportText(report));
  ASSERT_EQ(decoded.issues.size(), report.issues.size());
  for (size_t i = 0; i < decoded.issues.size(); ++i) {
    EXPECT_EQ(decoded.issues[i].ToString(), report.issues[i].ToString());
    EXPECT_EQ(decoded.issues[i].wire.query_packet, report.issues[i].wire.query_packet);
  }
}

TEST_F(IncrementalTest, ParseReportRejectsDamagedPayloads) {
  VerificationReport report = Run(EngineVersion::kGolden, nullptr, StoreMode::kOff);
  const std::string payload = SerializeReport(report);
  VerificationReport decoded;
  EXPECT_FALSE(ParseReport("", &decoded));
  EXPECT_FALSE(ParseReport("garbage bytes", &decoded));
  EXPECT_FALSE(ParseReport(payload.substr(0, payload.size() / 2), &decoded));
  EXPECT_FALSE(ParseReport(payload + "trailing", &decoded));
}

TEST_F(IncrementalTest, KeysSpellOutTheirInputs) {
  // Distinct versions hash to distinct source hashes; distinct options to
  // distinct digests; and every key embeds the schema version so a bump
  // invalidates everything at once.
  EXPECT_NE(EngineSourceHashHex(EngineVersion::kGolden),
            EngineSourceHashHex(EngineVersion::kDev));
  VerifyOptions a, b;
  b.safety_only = true;
  EXPECT_NE(VerifyOptionsDigest(a), VerifyOptionsDigest(b));
  const std::string key = ReportKey("s", "z", "o");
  EXPECT_NE(key.find(kStoreSchemaVersion), std::string::npos);
  EXPECT_NE(key, ReportKey("s2", "z", "o"));
  EXPECT_NE(ReportKey("s", "z", "o"), ReportKey("s", "z2", "o"));
  EXPECT_NE(ReportKey("s", "z", "o"), ReportKey("s", "z", "o2"));
}

}  // namespace
}  // namespace dnsv
