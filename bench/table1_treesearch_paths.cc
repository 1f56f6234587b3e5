// Table 1 reproduction: all execution paths of TreeSearch walking the
// Fig.-11 example domain tree, with an example qname satisfying each path
// condition.
//
// The paper's Table 1 lists 14 paths P0-P13 for the tree
//   example.com -> { cs -> { web, zoo }, www }   (plus ns1 in our zone file)
// Our summary of treeSearch enumerates the same path families: one per
// reachable tree node (exact match) and one per "fell off the BST" position
// (closest-encloser match), exactly as the paper's P* arrows depict.
#include <cstdio>

#include "src/dns/example_zones.h"
#include "src/support/strings.h"
#include "src/dnsv/verifier.h"
#include "src/sym/refine.h"
#include "src/sym/summary.h"

namespace dnsv {
namespace {

// Builds a readable label for a model value: the interned label if exact, or
// a synthesized label that sits at the right lexicographic position.
std::string PrettyLabel(int64_t code, const LabelInterner& interner) {
  return interner.DecodeApprox(code);
}

int RunTable1() {
  ZoneConfig zone = CanonicalizeZone(Figure11Zone()).value();
  std::unique_ptr<CompiledEngine> engine = CompiledEngine::Compile(EngineVersion::kGolden);
  LabelInterner interner;
  ConcreteMemory concrete_memory;
  HeapImage image = BuildHeapImage(zone, &interner, engine->types(), &concrete_memory).value();

  TermArena arena;
  SolverSession solver(&arena);
  SymMemory base_memory = LiftMemory(concrete_memory, &arena);
  SymValue apex = LiftValue(image.apex_ptr, &arena);

  const int kRelCapacity = 3;  // up to 3 labels under example.com, like Table 1
  Summarizer summarizer(&engine->module(), &arena, &solver, base_memory, kRelCapacity,
                        interner.max_code());
  for (FunctionInterface& interface_config : ResolutionLayerInterfaces()) {
    summarizer.Configure(std::move(interface_config));
  }

  std::printf("Table 1: execution paths of TreeSearch on the Fig.-11 domain tree\n");
  std::printf("zone: %s\n", zone.origin.ToString().c_str());
  std::printf("%-8s %-34s %-10s %s\n", "Path", "Example qname", "match", "node");

  const FunctionSummary* summary = summarizer.GetOrCompute(
      "treeSearch", {apex, SymValue::Unit(), SymValue::OfTerm(arena.BoolConst(true)),
                     SymValue::NullPtr(), SymValue::NullPtr()});
  if (summary == nullptr) {
    std::printf("summarization failed\n");
    return 1;
  }

  StructLayout node_layout(engine->types(), kStructTreeNode);
  int path_id = 0;
  for (const SummaryEntry& entry : summary->entries) {
    if (solver.CheckAssuming(entry.condition) != SatResult::kSat) {
      continue;
    }
    Model model = solver.GetModel();
    // Decode the relative qname from the rel placeholder ("s0.p1.*").
    const SymValue& rel = summary->placeholder_args[1];
    Value rel_value = ConcretizeValue(rel, arena, &model);
    std::vector<std::string> labels;
    for (auto it = rel_value.elems.rbegin(); it != rel_value.elems.rend(); ++it) {
      labels.push_back(PrettyLabel(it->i, interner));
    }
    std::string qname =
        labels.empty() ? zone.origin.ToString()
                       : JoinStrings(labels, ".") + "." + zone.origin.ToString();
    // Decode match kind and matched node from the effects on the
    // SearchResult out-parameter (param index 3).
    std::string match = "?";
    std::string node_desc = "?";
    const StructDef& sr_def = engine->types().GetStruct("SearchResult");
    for (const SummaryEntry::FieldWrite& write : entry.writes) {
      if (write.param != 3) {
        continue;
      }
      if (static_cast<size_t>(sr_def.FieldIndex("match")) == write.field) {
        Value v = ConcretizeValue(write.value, arena, &model);
        match = v.i == kExactMatch ? "EXACT" : v.i == kPartialMatch ? "PARTIAL" : "NOMATCH";
      }
      if (static_cast<size_t>(sr_def.FieldIndex("node")) == write.field &&
          write.value.kind == SymValue::Kind::kPtr && !write.value.IsNullPtr()) {
        const SymValue* node = base_memory.Resolve(write.value.block, {});
        int64_t label_code = 0;
        arena.AsIntConst(node->elems[node_layout.index("label")].term, &label_code);
        node_desc = interner.Decode(label_code);
      }
    }
    std::printf("P%-7d %-34s %-10s %s\n", path_id++, qname.c_str(), match.c_str(),
                node_desc.c_str());
  }
  std::printf("\ntotal paths: %d (paper reports 14 on its variant of this tree)\n", path_id);
  std::printf("summary computed in %.3fs, %lld instructions\n", summary->compute_seconds,
              static_cast<long long>(summary->instrs));
  return 0;
}

}  // namespace
}  // namespace dnsv

int main() { return dnsv::RunTable1(); }
