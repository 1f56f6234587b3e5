// Corruption safety (docs/INCREMENTAL.md): a damaged store must read as a
// miss and send the pipeline down the cold path — never replay damaged data,
// never abort, and produce a report byte-identical to the pristine run.
//
// Each test cold-verifies into a fresh store, damages every artifact file
// with one defect class (truncation, bit flip, wrong container version),
// then re-runs warm and checks the fallback.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/dnsv/incremental.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"

namespace dnsv {
namespace {

namespace fs = std::filesystem;

class StoreTamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The test owns its store and solver configuration.
    ::unsetenv("DNSV_STORE_DIR");
    ::unsetenv("DNSV_STORE_FORCE");
    ::unsetenv("DNSV_SOLVER_FORCE");
    root_ = fs::temp_directory_path() /
            ("dnsv-tamper-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  VerificationReport Run(EngineVersion version, ArtifactStore* store) {
    // Fresh context + cleared global cache: the store is the only channel
    // between the cold and warm runs.
    VerifyContext context;
    QueryCache::Global()->Clear();
    VerifyOptions options;
    options.use_summaries = true;
    options.prune = true;
    options.store = store;
    return RunVerifyPipeline(&context, version, Figure11Zone(), options);
  }

  // Applies `damage` to every artifact file under the store root.
  int DamageAll(const std::function<void(const fs::path&)>& damage) {
    int damaged = 0;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root_)) {
      if (entry.is_regular_file() && entry.path().extension() == ".art") {
        damage(entry.path());
        ++damaged;
      }
    }
    return damaged;
  }

  void CheckColdFallback(EngineVersion version,
                         const std::function<void(const fs::path&)>& damage) {
    ArtifactStore store(root_.string());
    VerificationReport cold = Run(version, &store);
    ASSERT_FALSE(cold.aborted) << cold.abort_reason;
    ASSERT_FALSE(cold.incremental.replayed);
    const std::string cold_text = NormalizedReportText(cold);
    ASSERT_GT(DamageAll(damage), 0) << "cold run wrote no artifacts to damage";

    VerificationReport warm = Run(version, &store);
    EXPECT_FALSE(warm.aborted) << warm.abort_reason;
    EXPECT_FALSE(warm.incremental.replayed)
        << "a damaged report artifact must never replay";
    EXPECT_EQ(NormalizedReportText(warm), cold_text)
        << "cold fallback must reproduce the pristine report";
    EXPECT_GE(store.counters().corrupt_rejected, 1);
  }

  fs::path root_;
};

void Truncate(const fs::path& path) {
  fs::resize_file(path, fs::file_size(path) / 2);
}

void BitFlip(const fs::path& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  ASSERT_GT(size, 2);
  // Flip a payload byte (the file ends "<payload>\n"): the checksum check
  // must catch it even though the framing is intact.
  file.seekg(size - 2);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(size - 2);
  file.write(&byte, 1);
}

void WrongContainerVersion(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const std::string current = "dnsvstore 1 ";
  ASSERT_EQ(content.compare(0, current.size(), current), 0)
      << "container header changed; update this test";
  content.replace(0, current.size(), "dnsvstore 9 ");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST_F(StoreTamperTest, TruncatedArtifactsFallBackCold) {
  CheckColdFallback(EngineVersion::kGolden, Truncate);
}

TEST_F(StoreTamperTest, BitFlippedArtifactsFallBackCold) {
  CheckColdFallback(EngineVersion::kGolden, BitFlip);
}

TEST_F(StoreTamperTest, WrongContainerVersionFallsBackCold) {
  CheckColdFallback(EngineVersion::kGolden, WrongContainerVersion);
}

// The same guarantee for a buggy version, where the report carries issues,
// counterexamples, and wire packets: the richer payload must also survive
// the damage-then-recompute path byte-identically.
TEST_F(StoreTamperTest, BuggyVersionReportSurvivesTamper) {
  CheckColdFallback(EngineVersion::kV1, BitFlip);
}

}  // namespace
}  // namespace dnsv
