// absir-codegen: build-time AOT translation of every engine version.
//
//   absir-codegen <output-dir>
//
// For each EngineVersion: compile the embedded MiniGo sources, apply the
// same PruneModule pass the verifier applies (so the generated code is the
// post-prune, i.e. verified, IR), fingerprint the result, and write
// gen_<token>.cc. Finishes with gen_manifest.cc defining AllGenModules().
// The emitted files are compiled into dnsv_exec by src/exec/CMakeLists.txt.
//
// With DNSV_STORE_DIR set, each version's generated translation unit is also
// an artifact keyed by the hash of that version's MiniGo sources: an
// unchanged version is served from the store without recompiling or
// re-lowering it, so incremental builds only pay for versions whose sources
// actually changed. A corrupt or absent artifact falls back to generating
// cold (the store's standard miss semantics).
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/prune.h"
#include "src/engine/engine.h"
#include "src/exec/codegen.h"
#include "src/ir/printer.h"
#include "src/store/store.h"
#include "src/support/strings.h"

namespace {

// Bump when EmitGenModule's output or PruneForCodegen's behavior changes:
// the source hash cannot see emitter changes, only this token can.
constexpr char kCodegenSchema[] = "v2";
constexpr char kCodegenKind[] = "codegen";

std::string CodegenKey(dnsv::EngineVersion version) {
  uint64_t hash = dnsv::kFnv1a64Seed;
  for (const auto& [name, text] : dnsv::EngineSources(version)) {
    // Unit separators keep ("ab","c") distinct from ("a","bc").
    hash = dnsv::Fnv1a64(name, hash);
    hash = dnsv::Fnv1a64("\x1f", hash);
    hash = dnsv::Fnv1a64(text, hash);
    hash = dnsv::Fnv1a64("\x1e", hash);
  }
  return dnsv::StrCat(kCodegenKind, "|", kCodegenSchema, "|src:", dnsv::HexU64(hash));
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "absir-codegen: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "absir-codegen: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string outdir = argv[1];
  dnsv::ArtifactStore* store = dnsv::ArtifactStore::FromEnv();
  std::vector<std::string> version_names;
  for (dnsv::EngineVersion version : dnsv::AllEngineVersions()) {
    const std::string name = dnsv::EngineVersionName(version);
    const std::string path = outdir + "/gen_" + dnsv::VersionToken(name) + ".cc";
    const std::string key = CodegenKey(version);

    std::string generated;
    if (store != nullptr) {
      if (std::optional<std::string> cached = store->Get(kCodegenKind, key)) {
        generated = std::move(*cached);
        std::fprintf(stderr, "absir-codegen: %s -> %s (served from artifact store)\n",
                     name.c_str(), path.c_str());
      }
    }
    if (generated.empty()) {
      std::unique_ptr<dnsv::CompiledEngine> engine = dnsv::CompiledEngine::Compile(version);
      dnsv::PruneStats stats = dnsv::PruneForCodegen(&engine->mutable_module());
      engine->Freeze();
      uint64_t fingerprint = dnsv::ModuleFingerprint(engine->module());
      std::ostringstream out;
      dnsv::EmitGenModule(engine->module(), version, name, fingerprint, out);
      generated = out.str();
      if (store != nullptr) {
        store->Put(kCodegenKind, key, generated);
      }
      std::fprintf(stderr,
                   "absir-codegen: %s -> %s (fingerprint %016llx, %lld checks pruned)\n",
                   name.c_str(), path.c_str(), (unsigned long long)fingerprint,
                   (long long)stats.panics_discharged);
    }
    if (!WriteFile(path, generated)) {
      return 1;
    }
    version_names.push_back(name);
  }

  std::ostringstream manifest;
  dnsv::EmitGenManifest(version_names, manifest);
  if (!WriteFile(outdir + "/gen_manifest.cc", manifest.str())) {
    return 1;
  }
  return 0;
}
