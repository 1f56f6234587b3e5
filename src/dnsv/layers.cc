#include "src/dnsv/layers.h"

#include "src/dns/heap.h"
#include "src/dnsv/verifier.h"
#include "src/engine/engine.h"
#include "src/sym/refine.h"
#include "src/sym/summary.h"
#include "src/support/strings.h"

namespace dnsv {

const char* LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kManualSpec:
      return "manual-spec";
    case LayerKind::kSummarized:
      return "summarized";
    case LayerKind::kTopLevel:
      return "top-level";
  }
  return "?";
}

std::vector<LayerInfo> EngineLayers(EngineVersion version) {
  std::vector<LayerInfo> layers = {
      {"Name", LayerKind::kManualSpec,
       {"nameEq", "nameIsSubdomain", "nameStrip", "nameCompare", "namePrefix", "nameChild"}},
      {"NodeStack", LayerKind::kManualSpec,
       {"newNodeStack", "pushNode", "topNode", "nodeAtDepth"}},
      {"RRSet", LayerKind::kManualSpec, {"hasType", "getRRs", "isEmptyNode"}},
      {"Response", LayerKind::kManualSpec,
       {"newResponse", "appendAll", "synthesizeRR", "setAuthoritative"}},
      {"TreeSearch", LayerKind::kSummarized, {"findChild", "treeSearch"}},
      {"Find", LayerKind::kSummarized, {"answerExact", "chaseCname"}},
      {"Wildcard", LayerKind::kSummarized, {"wildcardAnswer"}},
  };
  if (EngineHasGlue(version)) {
    layers.push_back({"Additional", LayerKind::kSummarized, {"addAdditional"}});
  }
  layers.push_back({"Resolve", LayerKind::kTopLevel, {"resolve"}});
  return layers;
}

namespace {

// Per-measurement symbolic session on top of the pipeline's shared immutable
// state (compiled engine + lifted zone). The arena/solver/summarizer are
// private to this measurement, mirroring the ExploreStage worker isolation
// rule: shared state is read-only, every session owns its solver.
struct LayerContext {
  std::shared_ptr<const CompiledEngine> engine;
  std::shared_ptr<const LiftedZone> lifted;
  std::unique_ptr<TermArena> arena;
  std::unique_ptr<SolverSession> solver;
  SymMemory base_memory;
  SymValue apex, origin, zone_rrs;
  int qname_capacity = 4;
  std::unique_ptr<Summarizer> summarizer;

  SymbolicIntList FreshList(const std::string& name, int capacity) {
    SymbolicIntList list =
        MakeSymbolicIntList(arena.get(), name, capacity, LabelInterner::kWildcardCode,
                            lifted->interner.max_code());
    solver->Assert(list.constraints);
    return list;
  }
  SymbolicInt FreshInt(const std::string& name, int64_t lo, int64_t hi) {
    SymbolicInt value = MakeSymbolicInt(arena.get(), name, lo, hi);
    solver->Assert(value.constraints);
    return value;
  }
};

std::unique_ptr<LayerContext> MakeContext(VerifyContext* verify_context, EngineVersion version,
                                          const ZoneConfig& zone) {
  auto ctx = std::make_unique<LayerContext>();
  ctx->engine = verify_context->GetEngine(version);
  ctx->lifted = verify_context->GetLiftedZone(version, zone).value();
  ctx->arena = std::make_unique<TermArena>();
  ctx->solver = std::make_unique<SolverSession>(ctx->arena.get());
  ctx->base_memory = LiftMemory(ctx->lifted->memory, ctx->arena.get());
  ctx->apex = LiftValue(ctx->lifted->image.apex_ptr, ctx->arena.get());
  ctx->origin = LiftValue(ctx->lifted->image.origin_labels, ctx->arena.get());
  ctx->zone_rrs = LiftValue(ctx->lifted->image.zone_rrs, ctx->arena.get());
  ctx->qname_capacity = static_cast<int>(ctx->lifted->max_owner_labels) + 1;
  ctx->summarizer = std::make_unique<Summarizer>(
      &ctx->engine->module(), ctx->arena.get(), ctx->solver.get(), ctx->base_memory,
      ctx->qname_capacity, ctx->lifted->interner.max_code());
  for (FunctionInterface& interface_config : ResolutionLayerInterfaces()) {
    ctx->summarizer->Configure(std::move(interface_config));
  }
  // addAdditional / chaseCname interfaces (concrete record arguments).
  using M = ParamMode;
  ctx->summarizer->Configure(
      {"addAdditional", {M::kConcrete, M::kConcrete, M::kOutStruct, M::kConcrete}});
  return ctx;
}

// Explores `fn` with the given args, adding time/paths to `timing`.
void ExploreInto(LayerContext* ctx, const std::string& fn, const std::vector<SymValue>& args,
                 LayerTiming* timing) {
  const Function* function = ctx->engine->module().GetFunction(fn);
  if (function == nullptr) {
    return;
  }
  double start = ElapsedSeconds();
  double solve_before = ctx->solver->solve_seconds();
  SymExecutor executor(&ctx->engine->module(), ctx->arena.get(), ctx->solver.get());
  SymState state;
  state.memory = ctx->base_memory;
  state.pc = ctx->arena->True();
  try {
    std::vector<PathOutcome> outcomes = executor.Explore(*function, args, std::move(state));
    timing->paths += static_cast<int64_t>(outcomes.size());
  } catch (const DnsvError& e) {
    timing->ok = false;
    timing->note += StrCat(fn, ": ", e.what(), "; ");
  }
  timing->seconds += ElapsedSeconds() - start;
  timing->solve_seconds += ctx->solver->solve_seconds() - solve_before;
}

// Summarizes `fn` for the given concrete arguments.
void SummarizeInto(LayerContext* ctx, const std::string& fn,
                   const std::vector<SymValue>& args, LayerTiming* timing) {
  if (ctx->engine->module().GetFunction(fn) == nullptr) {
    return;
  }
  double start = ElapsedSeconds();
  double solve_before = ctx->solver->solve_seconds();
  const FunctionSummary* summary = ctx->summarizer->GetOrCompute(fn, args);
  timing->seconds += ElapsedSeconds() - start;
  timing->solve_seconds += ctx->solver->solve_seconds() - solve_before;
  if (summary == nullptr) {
    timing->ok = false;
    timing->note += fn + ": summarization declined; ";
  } else {
    timing->paths += static_cast<int64_t>(summary->entries.size());
  }
}

// All tree node pointers (blocks 1..num_tree_nodes are TreeNode blocks).
std::vector<SymValue> TreeNodePtrs(const LayerContext& ctx) {
  std::vector<SymValue> nodes;
  for (int b = 1; b <= ctx.lifted->image.num_tree_nodes; ++b) {
    nodes.push_back(SymValue::Ptr(static_cast<BlockIndex>(b)));
  }
  return nodes;
}

}  // namespace

LayerMeasurement MeasureLayers(VerifyContext* verify_context, EngineVersion version,
                               const ZoneConfig& zone) {
  std::unique_ptr<LayerContext> ctx = MakeContext(verify_context, version, zone);
  TermArena& arena = *ctx->arena;
  LayerMeasurement measurement;

  for (const LayerInfo& layer : EngineLayers(version)) {
    LayerTiming timing;
    timing.layer = layer.name;
    timing.kind = layer.kind;
    int64_t checks_before = ctx->solver->num_checks();

    if (layer.name == "Name") {
      int cap = ctx->qname_capacity;
      SymbolicIntList a = ctx->FreshList("L.a", cap);
      SymbolicIntList b = ctx->FreshList("L.b", 3);
      SymbolicInt k = ctx->FreshInt("L.k", 0, cap);
      ExploreInto(ctx.get(), "nameEq", {a.value, b.value}, &timing);
      ExploreInto(ctx.get(), "nameIsSubdomain", {a.value, ctx->origin}, &timing);
      ExploreInto(ctx.get(), "nameStrip", {a.value, ctx->origin}, &timing);
      ExploreInto(ctx.get(), "nameCompare", {a.value, b.value}, &timing);
      ExploreInto(ctx.get(), "namePrefix", {a.value, k.value}, &timing);
      ExploreInto(ctx.get(), "nameChild", {a.value, k.value}, &timing);
    } else if (layer.name == "NodeStack") {
      ExploreInto(ctx.get(), "newNodeStack", {}, &timing);
      // A concrete two-entry stack with a symbolic probe depth.
      SymState probe_state;
      probe_state.memory = ctx->base_memory;
      SymValue stack = SymValue::Struct(
          {SymValue::List({ctx->apex, ctx->apex}, &arena), SymValue::OfTerm(arena.IntConst(2))});
      BlockIndex stack_block = probe_state.memory.Alloc(stack);
      SymbolicInt depth = ctx->FreshInt("L.depth", -1, 3);
      for (const char* fn : {"topNode", "nodeAtDepth", "pushNode"}) {
        const Function* function = ctx->engine->module().GetFunction(fn);
        if (function == nullptr) {
          continue;
        }
        double start = ElapsedSeconds();
        double solve_before = ctx->solver->solve_seconds();
        SymExecutor executor(&ctx->engine->module(), ctx->arena.get(), ctx->solver.get());
        std::vector<SymValue> args = {SymValue::Ptr(stack_block)};
        if (std::string(fn) == "nodeAtDepth") {
          args.push_back(depth.value);
        } else if (std::string(fn) == "pushNode") {
          args.push_back(ctx->apex);
        }
        try {
          SymState st = probe_state;
          st.pc = arena.True();
          timing.paths +=
              static_cast<int64_t>(executor.Explore(*function, args, std::move(st)).size());
        } catch (const DnsvError& e) {
          timing.ok = false;
          timing.note += StrCat(fn, ": ", e.what(), "; ");
        }
        timing.seconds += ElapsedSeconds() - start;
        timing.solve_seconds += ctx->solver->solve_seconds() - solve_before;
      }
    } else if (layer.name == "RRSet") {
      SymbolicInt rtype = ctx->FreshInt("L.rtype", 1, 255);
      for (const SymValue& node : TreeNodePtrs(*ctx)) {
        ExploreInto(ctx.get(), "hasType", {node, rtype.value}, &timing);
        ExploreInto(ctx.get(), "getRRs", {node, rtype.value}, &timing);
        ExploreInto(ctx.get(), "isEmptyNode", {node}, &timing);
      }
    } else if (layer.name == "Response") {
      ExploreInto(ctx.get(), "newResponse", {}, &timing);
      SymbolicIntList qn = ctx->FreshList("L.qn", 3);
      if (!ctx->zone_rrs.elems.empty()) {
        SymValue rr = ctx->zone_rrs.elems[0];
        ExploreInto(ctx.get(), "synthesizeRR", {rr, qn.value}, &timing);
        SymValue rr_list = SymValue::List({rr}, &arena);
        ExploreInto(ctx.get(), "appendAll", {rr_list, rr_list}, &timing);
      }
    } else if (layer.name == "TreeSearch") {
      SymbolicInt label = ctx->FreshInt("L.label", 1, ctx->lifted->interner.max_code());
      const SymValue* apex_node = ctx->base_memory.Resolve(ctx->apex.block, {});
      StructLayout node_layout(ctx->engine->types(), kStructTreeNode);
      ExploreInto(ctx.get(), "findChild",
                  {apex_node->elems[node_layout.index("down")], label.value}, &timing);
      // Summaries of treeSearch, both delegation modes.
      SymbolicIntList rel = ctx->FreshList("L.rel", ctx->qname_capacity - 2);
      SymValue out = SymValue::NullPtr();   // placeholder; summarizer builds its own
      SymValue stack = SymValue::NullPtr();
      for (bool stop_at_ns : {true, false}) {
        SummarizeInto(ctx.get(), "treeSearch",
                      {ctx->apex, rel.value, SymValue::OfTerm(arena.BoolConst(stop_at_ns)),
                       out, stack},
                      &timing);
      }
    } else if (layer.name == "Find") {
      SymbolicIntList qn = ctx->FreshList("L.fq", ctx->qname_capacity);
      SymbolicInt qt = ctx->FreshInt("L.ft", 1, 255);
      for (const SymValue& node : TreeNodePtrs(*ctx)) {
        SummarizeInto(ctx.get(), "answerExact",
                      {ctx->apex, ctx->origin, node, qn.value, qt.value, SymValue::NullPtr()},
                      &timing);
      }
    } else if (layer.name == "Wildcard") {
      SymbolicIntList qn = ctx->FreshList("L.wq", ctx->qname_capacity);
      SymbolicInt qt = ctx->FreshInt("L.wt", 1, 255);
      for (const SymValue& node : TreeNodePtrs(*ctx)) {
        SummarizeInto(ctx.get(), "wildcardAnswer",
                      {ctx->apex, ctx->origin, node, qn.value, qt.value, SymValue::NullPtr()},
                      &timing);
      }
    } else if (layer.name == "Additional") {
      // Glue for the apex NS set — the canonical referral workload.
      StructLayout rr_layout(ctx->engine->types(), kStructRr);
      std::vector<SymValue> ns_rrs;
      for (const SymValue& rr : ctx->zone_rrs.elems) {
        int64_t rtype = 0;
        if (arena.AsIntConst(rr.elems[rr_layout.index("rtype")].term, &rtype) &&
            rtype == static_cast<int64_t>(RrType::kNs)) {
          ns_rrs.push_back(rr);
        }
      }
      SummarizeInto(ctx.get(), "addAdditional",
                    {ctx->apex, ctx->origin, SymValue::NullPtr(),
                     SymValue::List(ns_rrs, &arena)},
                    &timing);
    } else if (layer.name == "Resolve") {
      // The whole-engine check is a full pipeline run; it reuses the already
      // compiled engine and lifted zone through the shared context.
      double start = ElapsedSeconds();
      VerifyOptions options;
      options.use_summaries = true;
      options.max_issues = 1;
      VerificationReport report =
          RunVerifyPipeline(verify_context, version, ctx->lifted->zone, options);
      timing.seconds += ElapsedSeconds() - start;
      timing.solve_seconds += report.solver.solve_seconds;
      timing.solver_checks += report.solver.z3_checks;
      timing.paths += report.engine_paths + report.spec_paths;
      if (report.aborted) {
        timing.ok = false;
        timing.note += report.abort_reason;
      }
      measurement.resolve_report = std::move(report);
    }

    timing.solver_checks += ctx->solver->num_checks() - checks_before;
    measurement.rows.push_back(std::move(timing));
  }
  return measurement;
}

std::vector<LayerTiming> MeasureLayerTimes(EngineVersion version, const ZoneConfig& zone) {
  VerifyContext context;
  return MeasureLayers(&context, version, zone).rows;
}

}  // namespace dnsv
