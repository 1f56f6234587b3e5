// Textual dump of AbsIR, for diagnostics and golden tests.
#ifndef DNSV_IR_PRINTER_H_
#define DNSV_IR_PRINTER_H_

#include <cstdint>
#include <string>

#include "src/ir/function.h"

namespace dnsv {

std::string PrintFunction(const Module& module, const Function& function);
std::string PrintModule(const Module& module);

// Content hash (FNV-1a over PrintModule) identifying one exact AbsIR module.
// The AOT backend (src/exec) embeds the fingerprint of the post-prune module
// it was generated from, and the differential harness recomputes it to prove
// the compiled artifact and the verified IR are the same bytes.
uint64_t ModuleFingerprint(const Module& module);

// Content hash of one function's printed form. The printer spells out the
// parameter/return types by name and names callees in the instruction text,
// so the hash is self-contained: two functions hash equal iff their bodies,
// signatures, and block structure print identically — even when they live in
// different modules with differently-numbered type tables. This is the
// structural identity the spec-exploration cache's cone hashes are built on
// (src/store/hash.h, docs/INCREMENTAL.md).
uint64_t FunctionFingerprint(const Module& module, const Function& function);

// Content hash of the module's struct layouts: every defined struct, in name
// order, with its fields' names and types spelled by name. Function hashes
// name types without their fields, so anything laid out against the type
// table (a lifted zone heap) needs this hash as well.
uint64_t TypeTableFingerprint(const TypeTable& types);

}  // namespace dnsv

#endif  // DNSV_IR_PRINTER_H_
