// Incremental pipeline semantics (docs/INCREMENTAL.md): replay, store
// modes, the DNSV_STORE_FORCE override, report serialization, and the
// warm-vs-cold byte-identity guarantee across every engine version —
// including the buggy ones, whose reports carry counterexamples and wire
// packets.
#include "src/dnsv/incremental.h"

#include <cstdlib>
#include <filesystem>
#include <string>

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

  // Every run gets a fresh context and a cleared global query cache, so the
  // only state carried between runs is the artifact store itself.
  VerificationReport Run(EngineVersion version, ArtifactStore* store, StoreMode mode) {
    VerifyContext context;
    QueryCache::Global()->Clear();
    VerifyOptions options;
    options.use_summaries = true;
    options.prune = true;
    options.store = store;
    options.store_mode = mode;
    return RunVerifyPipeline(&context, version, Figure11Zone(), options);
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
  EXPECT_EQ(warm.incremental.functions_reused, warm.incremental.functions_total);
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

TEST_F(IncrementalTest, ColdModeWritesButNeverReplays) {
  ArtifactStore store(root_.string());
  VerificationReport first = Run(EngineVersion::kGolden, &store, StoreMode::kIncremental);
  ASSERT_FALSE(first.incremental.replayed);
  VerificationReport second = Run(EngineVersion::kGolden, &store, StoreMode::kCold);
  EXPECT_TRUE(second.incremental.store_enabled);
  EXPECT_FALSE(second.incremental.replayed);
  EXPECT_EQ(second.incremental.functions_reused, 0);
  EXPECT_EQ(NormalizedReportText(second), NormalizedReportText(first));
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
  VerifyOptions options;
  options.use_summaries = true;
  options.prune = true;
  options.store = &store;
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
  for (const char* value : {"shaddow", ""}) {
    SCOPED_TRACE(value);
    ::setenv("DNSV_STORE_FORCE", value, 1);
    EXPECT_DEATH(ResolveStore(VerifyOptions{}), "off\\|shadow\\|cold\\|incremental\\|on");
  }
  ::unsetenv("DNSV_STORE_FORCE");
}

// Janus's core scenario: verify v3.0, then verify the edited engine (dev).
// The changed resolve cone is recomputed; every untouched layer's marker
// carries across the version boundary because the keys are content hashes,
// not version names.
TEST_F(IncrementalTest, EditedVersionReusesUntouchedLayers) {
  ArtifactStore store(root_.string());
  VerificationReport base = Run(EngineVersion::kV3, &store, StoreMode::kIncremental);
  ASSERT_FALSE(base.aborted) << base.abort_reason;

  VerificationReport edited = Run(EngineVersion::kDev, &store, StoreMode::kIncremental);
  EXPECT_FALSE(edited.incremental.replayed);
  EXPECT_GT(edited.incremental.layers_reused, 0);
  EXPECT_LT(edited.incremental.layers_reused, edited.incremental.layers_total);
  EXPECT_FALSE(edited.incremental.dirty_layers.empty());
  EXPECT_GT(edited.incremental.functions_reused, 0);
}

TEST_F(IncrementalTest, ReportSerializationRoundTrips) {
  // v1.0 is buggy: the report carries issues, classifications, and wire
  // packets — the hard case for the codec.
  VerificationReport report = Run(EngineVersion::kV1, nullptr, StoreMode::kOff);
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  ASSERT_FALSE(report.issues.empty());

  const std::string payload = SerializeReport(report, 33, 8);
  VerificationReport decoded;
  int64_t functions_total = 0, layers_total = 0;
  ASSERT_TRUE(ParseReport(payload, &decoded, &functions_total, &layers_total));
  EXPECT_EQ(functions_total, 33);
  EXPECT_EQ(layers_total, 8);
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
  const std::string payload = SerializeReport(report, 35, 9);
  VerificationReport decoded;
  int64_t ft = 0, lt = 0;
  EXPECT_FALSE(ParseReport("", &decoded, &ft, &lt));
  EXPECT_FALSE(ParseReport("garbage bytes", &decoded, &ft, &lt));
  EXPECT_FALSE(ParseReport(payload.substr(0, payload.size() / 2), &decoded, &ft, &lt));
  EXPECT_FALSE(ParseReport(payload + "trailing", &decoded, &ft, &lt));
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
  EXPECT_NE(FunctionMarkerKey(1, "z", "o"), FunctionMarkerKey(2, "z", "o"));
  EXPECT_NE(LayerMarkerKey(1, "z", "o"), FunctionMarkerKey(1, "z", "o"));
  EXPECT_NE(PruneCheckKey(1), PruneCheckKey(2));
}

}  // namespace
}  // namespace dnsv
