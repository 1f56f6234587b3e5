// Structural-hash tests: the body/cone hashes of src/store/hash.h are the
// store's invalidation logic, so their equality/inequality behavior is
// load-bearing — equal when nothing in the cone changed, different when
// anything did.
#include "src/store/hash.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dnsv/layers.h"
#include "src/engine/engine.h"
#include "src/ir/printer.h"

namespace dnsv {
namespace {

ModuleManifest ManifestOf(EngineVersion version) {
  std::unique_ptr<CompiledEngine> engine = CompiledEngine::Compile(version);
  return BuildModuleManifest(engine->module());
}

TEST(HashTest, DeterministicAcrossCompiles) {
  ModuleManifest first = ManifestOf(EngineVersion::kGolden);
  ModuleManifest second = ManifestOf(EngineVersion::kGolden);
  EXPECT_EQ(first.body_hash, second.body_hash);
  EXPECT_EQ(first.cone_hash, second.cone_hash);
}

// Every function's body hash is its printer fingerprint.
TEST(HashTest, ManifestMatchesModuleFingerprint) {
  std::unique_ptr<CompiledEngine> engine = CompiledEngine::Compile(EngineVersion::kGolden);
  ModuleManifest manifest = BuildModuleManifest(engine->module());
  EXPECT_EQ(manifest.body_hash.size(), engine->module().functions().size());
  EXPECT_EQ(manifest.body_hash.size(), manifest.cone_hash.size());
  for (const auto& fn : engine->module().functions()) {
    EXPECT_EQ(manifest.body_hash.at(fn->name()), FunctionFingerprint(engine->module(), *fn))
        << fn->name();
  }
}

// Versions share their library layers: most functions must carry identical
// body hashes across versions, while the modules as a whole differ.
TEST(HashTest, BodyHashesSharedAcrossVersions) {
  ModuleManifest golden = ManifestOf(EngineVersion::kGolden);
  ModuleManifest dev = ManifestOf(EngineVersion::kDev);
  EXPECT_NE(golden.cone_hash, dev.cone_hash);

  int shared = 0, differing = 0;
  for (const auto& [name, hash] : golden.body_hash) {
    auto it = dev.body_hash.find(name);
    if (it == dev.body_hash.end()) continue;
    (it->second == hash ? shared : differing)++;
  }
  EXPECT_GT(shared, 10) << "library functions should hash identically";
  EXPECT_GT(differing, 0) << "dev differs from golden somewhere";
}

// The cone hash must change for every transitive caller of a changed
// function and for nothing else: exactly the Fig.-5 layer reuse condition.
TEST(HashTest, LayerConesLocalizeTheDiff) {
  ModuleManifest v3 = ManifestOf(EngineVersion::kV3);
  ModuleManifest dev = ManifestOf(EngineVersion::kDev);

  int reused = 0;
  std::vector<std::string> dirty;
  for (const LayerInfo& layer : EngineLayers(EngineVersion::kDev)) {
    uint64_t dev_hash = CombineConeHashes(dev, layer.functions);
    uint64_t v3_hash = CombineConeHashes(v3, layer.functions);
    if (dev_hash == v3_hash) {
      ++reused;
    } else {
      dirty.push_back(layer.name);
    }
  }
  EXPECT_GE(reused, 7) << "library layers must hash identically across v3/dev";
  ASSERT_FALSE(dirty.empty()) << "the changed resolve layer must be dirty";
  for (const std::string& name : dirty) {
    EXPECT_TRUE(name == "Resolve" || name == "Find" || name == "Wildcard")
        << "unexpected dirty layer " << name;
  }
}

TEST(HashTest, CombineIsSensitiveToMembership) {
  ModuleManifest manifest = ManifestOf(EngineVersion::kGolden);
  ASSERT_GE(manifest.cone_hash.size(), 2u);
  const std::string a = manifest.cone_hash.begin()->first;
  const std::string b = std::next(manifest.cone_hash.begin())->first;
  EXPECT_NE(CombineConeHashes(manifest, {a}), CombineConeHashes(manifest, {a, b}));
  // An absent function is not the same as no function: "layer lost a member"
  // must change the hash rather than silently matching.
  EXPECT_NE(CombineConeHashes(manifest, {a}),
            CombineConeHashes(manifest, {a, "no_such_function"}));
  EXPECT_NE(CombineConeHashes(manifest, {"no_such_function"}),
            CombineConeHashes(manifest, {}));
}

}  // namespace
}  // namespace dnsv
