// Cross-validation of the symbolic executor against the concrete
// interpreter: pinning the symbolic query to a concrete value must leave
// exactly one feasible path whose final response equals the interpreter's.
// This is the strongest internal consistency check between the two
// evaluators (they share only the IR).
#include <gtest/gtest.h>

#include "src/dns/example_zones.h"
#include "src/engine/engine.h"
#include "src/sym/refine.h"
#include "src/support/strings.h"
#include "src/zonegen/zonegen.h"

namespace dnsv {
namespace {

class CrossCheck {
 public:
  CrossCheck(EngineVersion version, const ZoneConfig& zone) {
    server_ = std::move(AuthoritativeServer::Create(version, zone).value());
    arena_ = std::make_unique<TermArena>();
    solver_ = std::make_unique<SolverSession>(arena_.get());
    base_memory_ = LiftMemory(server_->memory(), arena_.get());
    apex_ = LiftValue(server_->heap_image().apex_ptr, arena_.get());
    origin_ = LiftValue(server_->heap_image().origin_labels, arena_.get());
  }

  // Runs qname/qtype symbolically-but-pinned and concretely; EXPECTs equality.
  void Check(const DnsName& qname, RrType qtype) {
    // Concrete run.
    QueryResult concrete = server_->Query(qname, qtype);

    // Symbolic run with the query pinned through the path condition, shaped
    // exactly like the verifier's inputs (same capacity, same variables).
    int capacity = static_cast<int>(qname.NumLabels()) + 1;
    SymbolicIntList sym_qname = MakeSymbolicIntList(
        arena_.get(), StrCat("xq", counter_), capacity, 1, server_->interner().max_code());
    SymbolicInt sym_qtype =
        MakeSymbolicInt(arena_.get(), StrCat("xt", counter_), 1, 255);
    ++counter_;
    std::vector<int64_t> codes = server_->interner().InternName(qname);
    std::vector<Term> pins = {
        arena_->Eq(sym_qname.value.list_len,
                   arena_->IntConst(static_cast<int64_t>(codes.size()))),
        arena_->Eq(sym_qtype.value.term, arena_->IntConst(static_cast<int64_t>(qtype)))};
    for (size_t i = 0; i < codes.size(); ++i) {
      pins.push_back(arena_->Eq(sym_qname.value.elems[i].term, arena_->IntConst(codes[i])));
    }
    SymState state;
    state.memory = base_memory_;
    state.pc = arena_->AndN({sym_qname.constraints, sym_qtype.constraints,
                             arena_->AndN(pins)});
    SymExecutor executor(&server_->engine().module(), arena_.get(), solver_.get());
    std::vector<PathOutcome> outcomes =
        executor.Explore(server_->engine().resolve_fn(),
                         {apex_, origin_, sym_qname.value, sym_qtype.value}, state);
    ASSERT_EQ(outcomes.size(), 1u) << "pinned query must leave exactly one feasible path";
    const PathOutcome& outcome = outcomes[0];
    if (concrete.panicked) {
      EXPECT_EQ(outcome.kind, PathOutcome::Kind::kPanicked);
      EXPECT_EQ(outcome.panic_message, concrete.panic_message);
      return;
    }
    ASSERT_EQ(outcome.kind, PathOutcome::Kind::kReturned)
        << "symbolic: " << outcome.panic_message;
    const SymValue* response = outcome.state.memory.Resolve(outcome.return_value.block,
                                                            outcome.return_value.path);
    ASSERT_NE(response, nullptr);
    // Values may still carry the pinned variables (the pins live in the path
    // condition); resolve them through a model of that condition.
    ASSERT_EQ(solver_->CheckAssuming(outcome.state.pc), SatResult::kSat);
    Model model = solver_->GetModel();
    Value concrete_response = ConcretizeValue(*response, *arena_, &model);
    ResponseView symbolic_view =
        DecodeResponse(concrete_response, server_->memory(), server_->interner(),
                       server_->engine().module().types());
    EXPECT_EQ(symbolic_view, concrete.response)
        << qname.ToString() << " " << RrTypeName(qtype) << "\nsymbolic:\n"
        << symbolic_view.ToString() << "concrete:\n" << concrete.response.ToString();
  }

 private:
  std::unique_ptr<AuthoritativeServer> server_;
  std::unique_ptr<TermArena> arena_;
  std::unique_ptr<SolverSession> solver_;
  SymMemory base_memory_;
  SymValue apex_, origin_;
  int counter_ = 0;
};

TEST(SymbolicVsConcrete, KitchenSinkScenarios) {
  CrossCheck check(EngineVersion::kGolden, KitchenSinkZone());
  const std::pair<const char*, RrType> probes[] = {
      {"www.example.com", RrType::kA},        // exact
      {"www.example.com", RrType::kAny},      // ANY
      {"chain.example.com", RrType::kA},      // CNAME chain
      {"host.dyn.example.com", RrType::kMx},  // wildcard + glue
      {"deep.sub.example.com", RrType::kA},   // referral + glue
      {"ent.example.com", RrType::kTxt},      // ENT NODATA
      {"missing.example.com", RrType::kA},    // NXDOMAIN
      {"www.elsewhere.org", RrType::kA},      // REFUSED
      {"example.com", RrType::kNs},           // apex
  };
  for (const auto& [qname, qtype] : probes) {
    check.Check(DnsName::Parse(qname).value(), qtype);
  }
}

TEST(SymbolicVsConcrete, DevCrashReproducesSymbolically) {
  CrossCheck check(EngineVersion::kDev, KitchenSinkZone());
  // The bug-9 query: both evaluators must agree on the panic.
  check.Check(DnsName::Parse("missing.example.com").value(), RrType::kA);
}

// Random sweep: generated zone, every interesting query name, two types.
class SymbolicVsConcreteSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymbolicVsConcreteSweep, RandomZone) {
  ZoneGenOptions options;
  options.max_names = 3;
  options.max_depth = 2;
  ZoneConfig zone = GenerateZone(GetParam(), options);
  CrossCheck check(EngineVersion::kGolden, zone);
  int probes = 0;
  for (const DnsName& qname : InterestingQueryNames(zone, GetParam(), 2)) {
    check.Check(qname, RrType::kA);
    check.Check(qname, RrType::kAny);
    if (++probes >= 12) {
      break;  // bound runtime
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicVsConcreteSweep,
                         ::testing::Values(uint64_t{21}, uint64_t{22}, uint64_t{23}));


// DomainTree layer refinement (yellow layer, Fig. 5): the BST walk findChild
// must equal the order-blind exhaustive search findChildSpec for every
// symbolic label over the concrete heap. Passing this also certifies the
// control plane's BST ordering invariant.
TEST(DomainTreeRefinement, FindChildRefinesExhaustiveSearch) {
  auto server =
      std::move(AuthoritativeServer::Create(EngineVersion::kGolden, KitchenSinkZone()).value());
  TermArena arena;
  SolverSession solver(&arena);
  SymMemory base_memory = LiftMemory(server->memory(), &arena);
  SymExecutor executor(&server->engine().module(), &arena, &solver);
  SymbolicInt label = MakeSymbolicInt(&arena, "label", 1, server->interner().max_code());
  // Check refinement from every per-level BST root in the tree.
  StructLayout node_layout(server->engine().module().types(), kStructTreeNode);
  int checked = 0;
  for (int b = 1; b <= server->heap_image().num_tree_nodes; ++b) {
    const SymValue* node = base_memory.Resolve(static_cast<BlockIndex>(b), {});
    ASSERT_NE(node, nullptr);
    const SymValue& down = node->elems[node_layout.index("down")];
    if (down.IsNullPtr()) {
      continue;
    }
    SymState state;
    state.memory = base_memory;
    state.pc = label.constraints;
    RefinementResult result = CheckFunctionRefinement(
        &executor, *server->engine().module().GetFunction("findChild"),
        *server->engine().module().GetFunction("findChildSpec"), {down, label.value}, state);
    EXPECT_TRUE(result.ok())
        << "BST rooted at block " << down.block << ": "
        << (result.mismatches.empty() ? result.abort_reason
                                      : result.mismatches[0].description);
    ++checked;
  }
  EXPECT_GT(checked, 2);  // the kitchen-sink zone has several non-leaf levels
}

// Negative control: deliberately corrupt the BST order in a copied heap and
// confirm the refinement check notices (i.e. the proof is not vacuous).
TEST(DomainTreeRefinement, CorruptedBstIsRejected) {
  auto server =
      std::move(AuthoritativeServer::Create(EngineVersion::kGolden, KitchenSinkZone()).value());
  TermArena arena;
  SolverSession solver(&arena);
  SymMemory base_memory = LiftMemory(server->memory(), &arena);
  StructLayout node_layout(server->engine().module().types(), kStructTreeNode);
  // Find a BST root with a left child and swap the child's label with an
  // impossible one by breaking the order: set root label below its left
  // child's label.
  bool corrupted = false;
  SymValue corrupt_root;
  for (int b = 1; b <= server->heap_image().num_tree_nodes && !corrupted; ++b) {
    const SymValue* node = base_memory.Resolve(static_cast<BlockIndex>(b), {});
    SymValue down = node->elems[node_layout.index("down")];
    if (down.IsNullPtr()) {
      continue;
    }
    const SymValue* root = base_memory.Resolve(down.block, down.path);
    const SymValue& left = root->elems[node_layout.index("left")];
    if (left.IsNullPtr()) {
      continue;
    }
    // Order violation: the root's label becomes smaller than everything.
    SymPath label_path = down.path;
    label_path.push_back(node_layout.index("label"));
    ASSERT_TRUE(
        base_memory.Store(down.block, label_path, SymValue::OfTerm(arena.IntConst(1))));
    corrupt_root = down;
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "zone has no BST with a left child";
  SymExecutor executor(&server->engine().module(), &arena, &solver);
  SymbolicInt label = MakeSymbolicInt(&arena, "label", 1, server->interner().max_code());
  SymState state;
  state.memory = base_memory;
  state.pc = label.constraints;
  RefinementResult result = CheckFunctionRefinement(
      &executor, *server->engine().module().GetFunction("findChild"),
      *server->engine().module().GetFunction("findChildSpec"), {corrupt_root, label.value},
      state);
  EXPECT_FALSE(result.ok()) << "refinement must fail on an order-violating BST";
}

}  // namespace
}  // namespace dnsv
