// Stable structural hashes over AbsIR. VerifyContext keys its spec
// exploration cache on them (src/dnsv/pipeline.h).
//
// Two hash granularities per function (docs/INCREMENTAL.md):
//
//   body hash — FunctionFingerprint (src/ir/printer.h): the function's own
//   printed form. Equal across modules/versions whenever the source text
//   compiled to the same IR, because the printer spells types and callees by
//   name, never by table index.
//
//   cone hash — the body hash combined with the cone hashes of everything
//   the function can transitively call (its "call cone"). A function's cone
//   hash changes iff its own body or any transitive callee changed, which is
//   exactly the invalidation condition for a cached exploration of that
//   function. Computed bottom-up over the call graph's SCC DAG; members of a
//   recursive SCC share the component's combined hash, salted with their own
//   body hash.
//
// CombineConeHashes folds the cone hashes of a set of functions (a Fig.-5
// layer, or the spec side's rrlookup + manual-spec pair), so the set hashes
// equal exactly when nothing at or below any member changed.
#ifndef DNSV_STORE_HASH_H_
#define DNSV_STORE_HASH_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ir/function.h"

namespace dnsv {

struct ModuleManifest {
  std::map<std::string, uint64_t> body_hash;  // per function
  std::map<std::string, uint64_t> cone_hash;  // per function, callees folded in
};

// Hashes every function of `module`. Deterministic: depends only on the
// module's printed form and call structure.
ModuleManifest BuildModuleManifest(const Module& module);

// Folds the cone hashes of `functions` (sorted by name; absent functions
// contribute a distinct marker so "layer lost a function" changes the hash).
uint64_t CombineConeHashes(const ModuleManifest& manifest,
                           const std::vector<std::string>& functions);

}  // namespace dnsv

#endif  // DNSV_STORE_HASH_H_
