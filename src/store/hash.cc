#include "src/store/hash.h"

#include <algorithm>

#include "src/analysis/callgraph.h"
#include "src/ir/printer.h"
#include "src/support/strings.h"

namespace dnsv {

ModuleManifest BuildModuleManifest(const Module& module) {
  ModuleManifest manifest;
  CallGraph graph = CallGraph::Build(module);
  for (const auto& fn : module.functions()) {
    manifest.body_hash[fn->name()] = FunctionFingerprint(module, *fn);
  }
  // Bottom-up over the SCC DAG: every callee outside the current component
  // already has its cone hash. Within a component the members' fates are
  // tied (mutual recursion), so they share one combined hash, salted with
  // the member's own body hash to keep distinct members distinct.
  for (const std::vector<int>& scc : graph.SccsBottomUp()) {
    std::vector<std::string> parts;
    std::set<int> members(scc.begin(), scc.end());
    for (int node : scc) {
      const std::string& name = graph.function(node).name();
      parts.push_back(StrCat("body:", name, ":", HexU64(manifest.body_hash.at(name))));
      for (int callee : graph.Callees(node)) {
        if (members.count(callee) != 0) continue;  // intra-SCC: covered by bodies
        const std::string& callee_name = graph.function(callee).name();
        parts.push_back(
            StrCat("cone:", callee_name, ":", HexU64(manifest.cone_hash.at(callee_name))));
      }
      // Calls with no module body (the listEq intrinsic) are already spelled
      // out inside the body hash; nothing extra to fold.
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    uint64_t combined = Fnv1a64(JoinStrings(parts, "\n"));
    for (int node : scc) {
      const std::string& name = graph.function(node).name();
      manifest.cone_hash[name] =
          Fnv1a64(StrCat("self:", HexU64(manifest.body_hash.at(name))), combined);
    }
  }
  return manifest;
}

uint64_t CombineConeHashes(const ModuleManifest& manifest,
                           const std::vector<std::string>& functions) {
  std::vector<std::string> parts;
  parts.reserve(functions.size());
  for (const std::string& name : functions) {
    auto it = manifest.cone_hash.find(name);
    parts.push_back(it != manifest.cone_hash.end()
                        ? StrCat(name, ":", HexU64(it->second))
                        : StrCat(name, ":absent"));
  }
  std::sort(parts.begin(), parts.end());
  return Fnv1a64(JoinStrings(parts, "\n"));
}

}  // namespace dnsv
