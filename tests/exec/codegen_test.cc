// Unit proof that the codegen optimizations fire and lower as documented.
//
// Stack promotion is dormant on the engine sources — every engine kNewObject
// escapes (constructor helpers return them, the tree stores them) — and
// cross-call forwarding fires only a couple of times per version, so the
// differential fuzzer alone would let that machinery rot unexercised. These
// hand-written modules hit each path and pin the emitted text; end-to-end
// correctness of the generated code stays the fuzzer's job
// (docs/BACKEND.md).
#include "src/exec/codegen.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "src/engine/engine.h"
#include "src/exec/backend.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/validate.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

class CodegenTest : public ::testing::Test {
 protected:
  CodegenTest() : module_(&types_) {
    types_.DefineStruct("Pair", {{"a", types_.IntType()}, {"b", types_.IntType()}});
    pair_ty_ = types_.StructType("Pair");
  }

  // leaf() int { return 7 } — summarized pure and panic-free, so a forwarded
  // load may cross calls to it.
  void BuildLeaf() {
    Function* fn = module_.AddFunction("leaf", {}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Int(7));
  }

  // promoteMe() int — a kNewObject whose pointer is only ever the direct
  // address of loads/stores and never leaves the frame: both promotion gates
  // (escape analysis + direct-addressing scan) pass.
  void BuildPromotable() {
    Function* fn = module_.AddFunction("promoteMe", {}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    Operand obj = b.NewObject(pair_ty_);
    Operand value = b.Load(obj);
    b.Store(obj, value);
    b.Ret(b.FieldGet(b.Load(obj), 0));
  }

  // carryMe(n int) int { slot := n + 1; v := slot; return v + leaf() } — the
  // load of `slot` is forwarded to the add, across the pure call, instead of
  // copied before it. (The stored value is a computed one so parameter copy
  // elision does not absorb the load first.)
  void BuildCarrier() {
    Function* fn =
        module_.AddFunction("carryMe", {{"n", types_.IntType()}}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    Operand slot = b.Alloca(types_.IntType());
    b.Store(slot, b.BinaryOp(BinOp::kAdd, b.Param(0), b.Int(1), types_.IntType()));
    Operand v = b.Load(slot);
    Operand c = b.Call("leaf", {}, types_.IntType());
    b.Ret(b.BinaryOp(BinOp::kAdd, v, c, types_.IntType()));
  }

  std::string Emit() {
    for (const auto& fn : module_.functions()) {
      EXPECT_TRUE(ValidateFunction(module_, *fn).ok()) << fn->name();
    }
    std::ostringstream out;
    EmitGenModule(module_, EngineVersion::kGolden, "v9.9", ModuleFingerprint(module_),
                  out);
    return out.str();
  }

  // The emitted definition of `fn_<name>`, from its signature line to the
  // closing brace.
  static std::string Body(const std::string& text, const std::string& name) {
    const std::string head = "bool fn_" + name + "(GenCtx& ctx";
    size_t start = text.find(head);
    while (start != std::string::npos && text[text.find('\n', start) - 1] != '{') {
      start = text.find(head, start + 1);  // skip the forward declaration
    }
    size_t end = text.find("\n}\n", start);
    EXPECT_NE(start, std::string::npos) << name;
    EXPECT_NE(end, std::string::npos) << name;
    return text.substr(start, end + 3 - start);
  }

  static bool Has(const std::string& body, const std::string& needle) {
    return body.find(needle) != std::string::npos;
  }

  TypeTable types_;
  Module module_;
  Type pair_ty_;
};

TEST_F(CodegenTest, StackPromotesNonEscapingNewObject) {
  BuildPromotable();
  std::string text = Emit();
  EXPECT_NE(text.find("1 heap allocation(s) stack-promoted"), std::string::npos)
      << text.substr(0, 2000);
  // The promoted object lives as a C++ local, not behind ConcreteMemory.
  EXPECT_EQ(text.find("ctx.memory->Alloc"), std::string::npos) << text.substr(0, 2000);
}

TEST_F(CodegenTest, CarriesPendingLoadAcrossSummarizedPureCall) {
  BuildLeaf();
  BuildCarrier();
  std::string text = Emit();
  EXPECT_NE(text.find("1 load(s) carried across summarized pure calls"),
            std::string::npos)
      << text.substr(0, 2000);
}

TEST_F(CodegenTest, ImpureCalleeBlocksCrossCallForwarding) {
  // Same shape as carryMe, but the callee writes caller memory so its
  // summary is impure: the load must be copied before the call, not
  // forwarded across it.
  Function* clobber = module_.AddFunction(
      "clobber", {{"p", types_.PtrTo(types_.IntType())}}, types_.IntType());
  {
    IrBuilder b(&module_, clobber);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Store(b.Param(0), b.Int(1));
    b.Ret(b.Int(0));
  }
  Function* fn =
      module_.AddFunction("spills", {{"n", types_.IntType()}}, types_.IntType());
  IrBuilder b(&module_, fn);
  b.SetInsertPoint(b.CreateBlock("entry"));
  Operand slot = b.Alloca(types_.IntType());
  Operand aux = b.Alloca(types_.IntType());
  b.Store(slot, b.Param(0));
  b.Store(aux, b.Int(0));
  Operand v = b.Load(slot);
  Operand c = b.Call("clobber", {aux}, types_.IntType());
  b.Ret(b.BinaryOp(BinOp::kAdd, v, c, types_.IntType()));

  std::string text = Emit();
  EXPECT_NE(text.find("0 load(s) carried across summarized pure calls"),
            std::string::npos)
      << text.substr(0, 2000);
}

TEST_F(CodegenTest, IntAndBoolRegistersAndSlotsAreInt64) {
  // lt3(n int) bool { s := n; return s < 3 }, with the slot stored twice so
  // it is a real int64_t local rather than a parameter alias.
  Function* fn = module_.AddFunction("lt3", {{"n", types_.IntType()}}, types_.BoolType());
  IrBuilder b(&module_, fn);
  b.SetInsertPoint(b.CreateBlock("entry"));
  Operand slot = b.Alloca(types_.IntType());  // %0
  b.Store(slot, b.Int(0));
  b.Store(slot, b.Param(0));
  Operand s = b.Load(slot);                                                   // %3
  Operand lt = b.BinaryOp(BinOp::kLt, s, b.Int(3), types_.BoolType());        // %4
  Operand neg = b.UnaryOp(UnOp::kNot, lt, types_.BoolType());                 // %5
  b.Ret(b.BinaryOp(BinOp::kBoolNe, neg, b.Bool(true), types_.BoolType()));   // %6
  std::string body = Body(Emit(), "lt3");
  EXPECT_TRUE(Has(body, "bool fn_lt3(GenCtx& ctx, int64_t p0, int64_t* ret) {")) << body;
  EXPECT_TRUE(Has(body, "  int64_t a0 = 0;\n")) << body;
  EXPECT_TRUE(Has(body, "  int64_t r4 = 0;\n")) << body;
  EXPECT_TRUE(Has(body, "  int64_t r5 = 0;\n")) << body;
  EXPECT_TRUE(Has(body, "  int64_t r6 = 0;\n")) << body;
  EXPECT_TRUE(Has(body, "  a0 = p0;\n")) << body;
  // The single-use load is forwarded: the compare reads the slot in place.
  EXPECT_TRUE(Has(body, "  r4 = (a0) < (3LL);\n")) << body;
  EXPECT_FALSE(Has(body, "Value r")) << body;
}

TEST_F(CodegenTest, BoolBoxesAsKindBoolAtReturnAndStore) {
  // flag(p *bool, n int) bool { f := n < 3; *p = f; return f }
  Function* fn = module_.AddFunction(
      "flag", {{"p", types_.PtrTo(types_.BoolType())}, {"n", types_.IntType()}},
      types_.BoolType());
  IrBuilder b(&module_, fn);
  b.SetInsertPoint(b.CreateBlock("entry"));
  Operand f = b.BinaryOp(BinOp::kLt, b.Param(1), b.Int(3), types_.BoolType());  // %0
  b.Store(b.Param(0), f);
  b.Ret(f);
  std::string text = Emit();
  std::string body = Body(text, "flag");
  EXPECT_TRUE(Has(body, "    *target = Value::Bool((r0) != 0);\n")) << body;
  EXPECT_TRUE(Has(body, "  *ret = r0;\n")) << body;
  // The dispatch wrapper boxes the int64_t result with the AbsIR kind.
  EXPECT_TRUE(Has(text, "  *ret = Value::Bool(result != 0);\n")) << text;
}

TEST_F(CodegenTest, CompiledBoolResultKeepsItsKind) {
  // End to end through a generated engine module: nameEq returns bool, and
  // both backends must hand back a kBool Value, not a kInt one.
  std::shared_ptr<const CompiledEngine> engine = CompiledEngine::GetCached(EngineVersion::kGolden);
  const Function* name_eq = engine->module().GetFunction("nameEq");
  ASSERT_NE(name_eq, nullptr);
  auto compiled = MakeCompiledBackend(EngineVersion::kGolden);
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  std::unique_ptr<ExecutionBackend> interp = MakeInterpBackend(&engine->module());
  std::vector<Value> args = {Value::List({Value::Int(4), Value::Int(9)}),
                             Value::List({Value::Int(4), Value::Int(9)})};
  for (ExecutionBackend* backend : {compiled.value().get(), interp.get()}) {
    ConcreteMemory memory;
    ExecOutcome outcome = backend->Run(*name_eq, args, &memory);
    ASSERT_TRUE(outcome.ok()) << backend->name() << ": " << outcome.panic_message;
    EXPECT_EQ(outcome.return_value.kind, Value::Kind::kBool) << backend->name();
    EXPECT_EQ(outcome.return_value, Value::Bool(true)) << backend->name();
  }
}

TEST_F(CodegenTest, AddressOnlyGepIsGenPtrEscapingGepIsValue) {
  Type pair_ptr = types_.PtrTo(pair_ty_);
  Type int_ptr = types_.PtrTo(types_.IntType());
  Function* sink = module_.AddFunction("sinkPtr", {{"q", int_ptr}}, types_.IntType());
  {
    IrBuilder b(&module_, sink);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Load(b.Param(0)));
  }
  Function* fn = module_.AddFunction("geps", {{"p", pair_ptr}}, types_.IntType());
  IrBuilder b(&module_, fn);
  b.SetInsertPoint(b.CreateBlock("entry"));
  Operand addr = b.Gep(b.Param(0), {b.Int(1)}, types_.IntType());       // %0: address only
  Operand v = b.Load(addr);                                               // %1
  b.Store(addr, v);
  Operand as_arg = b.Gep(b.Param(0), {b.Int(0)}, types_.IntType());     // %3: call argument
  Operand c = b.Call("sinkPtr", {as_arg}, types_.IntType());            // %4
  Operand lhs = b.Gep(b.Param(0), {b.Int(0)}, types_.IntType());        // %5: compared
  Operand eq = b.BinaryOp(BinOp::kPtrEq, lhs, b.Null(int_ptr), types_.BoolType());  // %6
  Operand slot = b.Alloca(int_ptr);                                       // %7
  Operand stored = b.Gep(b.Param(0), {b.Int(1)}, types_.IntType());     // %8: stored
  b.Store(slot, stored);
  Operand w = b.Load(b.Load(slot));                                       // %10, %11
  Operand sum = b.BinaryOp(BinOp::kAdd, c, w, types_.IntType());
  (void)eq;
  b.Ret(sum);
  std::string body = Body(Emit(), "geps");
  EXPECT_TRUE(Has(body, "  GenPtr<1> r0;\n")) << body;
  EXPECT_TRUE(Has(body, "    GenPtrGep(&r0, base, idxs, 1);\n")) << body;
  EXPECT_TRUE(Has(body, "GenResolve(ctx.memory, r0)")) << body;
  for (const char* escaping : {"r3", "r5", "r8"}) {
    EXPECT_TRUE(Has(body, StrCat("  Value ", escaping, ";\n"))) << escaping << "\n" << body;
    EXPECT_TRUE(Has(body, StrCat("    GenGepInto(&", escaping, ", base, idxs, 1);\n")))
        << escaping << "\n" << body;
  }
  // The null compare tests block and path, with no NullPtr temporary.
  EXPECT_TRUE(Has(body, "    r6 = (p.block == kNullBlockIndex && p.path.empty());\n")) << body;
  EXPECT_FALSE(Has(body, "= Value::NullPtr();\n    r6")) << body;
}

TEST_F(CodegenTest, PanicsStayAtTheirInstruction) {
  Type pair_ptr = types_.PtrTo(pair_ty_);
  {
    Function* fn = module_.AddFunction("div", {{"a", types_.IntType()}, {"b", types_.IntType()}},
                                       types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.BinaryOp(BinOp::kDiv, b.Param(0), b.Param(1), types_.IntType()));
  }
  {
    Function* fn = module_.AddFunction(
        "at", {{"xs", types_.ListOf(types_.IntType())}, {"i", types_.IntType()}},
        types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.ListGet(b.Param(0), b.Param(1)));
  }
  {
    Function* fn = module_.AddFunction("second", {{"p", pair_ptr}}, types_.IntType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Ret(b.Load(b.Gep(b.Param(0), {b.Int(1)}, types_.IntType())));
  }
  std::string text = Emit();
  EXPECT_TRUE(Has(Body(text, "div"),
                  "  if ((p1) == 0) return GenPanic(ctx, \"integer divide by zero\");\n"
                  "  r0 = (p0) / (p1);\n"))
      << Body(text, "div");
  EXPECT_TRUE(Has(Body(text, "at"),
                  "    if (idx < 0 || static_cast<size_t>(idx) >= list.elems.size()) "
                  "return GenPanic(ctx, \"index out of range\");\n"
                  "    r0 = list.elems[static_cast<size_t>(idx)].i;\n"))
      << Body(text, "at");
  // The nil check runs at the gep, on the Value base; the GenPtr load after
  // it keeps only the resolve check.
  EXPECT_TRUE(Has(Body(text, "second"),
                  "    const Value& base = p0;\n"
                  "    if (base.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n"
                  "    const int64_t idxs[] = {1LL};\n"
                  "    GenPtrGep(&r0, base, idxs, 1);\n"
                  "  }\n"
                  "  {\n"
                  "    const Value* target = GenResolve(ctx.memory, r0);\n"
                  "    if (target == nullptr) return GenPanic(ctx, \"invalid memory access\");\n"
                  "    r1 = target->i;\n"))
      << Body(text, "second");
}

TEST_F(CodegenTest, HeapListAppendGrowsTheCellInPlace) {
  Type int_list = types_.ListOf(types_.IntType());
  types_.DefineStruct("Bag", {{"xs", int_list}, {"ys", int_list}});
  Type bag_ptr = types_.PtrTo(types_.StructType("Bag"));
  Function* clobber = module_.AddFunction("clobberBag", {{"b", bag_ptr}}, types_.IntType());
  {
    IrBuilder b(&module_, clobber);
    b.SetInsertPoint(b.CreateBlock("entry"));
    b.Store(b.Gep(b.Param(0), {b.Int(0)}, int_list), b.ListNew(types_.IntType()));
    b.Ret(b.Int(0));
  }
  BuildLeaf();
  // <name>(b *Bag, v int) { b.<field> = append(b.xs, between()) }, where
  // `between` is emitted after the load of b.xs.
  auto build = [&](const std::string& name, int store_field,
                   const std::function<Operand(IrBuilder&)>& between) {
    Function* fn = module_.AddFunction(name, {{"b", bag_ptr}, {"v", types_.IntType()}},
                                       types_.VoidType());
    IrBuilder b(&module_, fn);
    b.SetInsertPoint(b.CreateBlock("entry"));
    Operand dst = b.Gep(b.Param(0), {b.Int(store_field)}, int_list);
    Operand list = b.Load(b.Gep(b.Param(0), {b.Int(0)}, int_list));
    Operand v = between(b);
    b.Store(dst, b.ListAppend(list, v));
    b.RetVoid();
  };
  build("push", 0, [](IrBuilder& b) { return b.Param(1); });
  build("pushAfterPure", 0, [&](IrBuilder& b) {
    return b.BinaryOp(BinOp::kAdd, b.Param(1), b.Call("leaf", {}, types_.IntType()),
                      types_.IntType());
  });
  build("pushAfterClobber", 0, [&](IrBuilder& b) {
    return b.Call("clobberBag", {b.Param(0)}, types_.IntType());
  });
  build("pushAfterStore", 0, [&](IrBuilder& b) {
    b.Store(b.Gep(b.Param(0), {b.Int(0)}, int_list), b.ListNew(types_.IntType()));
    return b.Param(1);
  });
  build("pushElsewhere", 1, [](IrBuilder& b) { return b.Param(1); });
  std::string text = Emit();
  EXPECT_NE(text.find("2 memory list append(s) in place"), std::string::npos) << text;
  for (const char* fused : {"push", "pushAfterPure"}) {
    std::string body = Body(text, fused);
    EXPECT_TRUE(Has(body, "    target->elems.push_back(Value::Int(")) << body;
    EXPECT_FALSE(Has(body, "= *target;")) << body;
    EXPECT_FALSE(Has(body, "Value list")) << body;
  }
  // An impure call or a store may rewrite the cell between the load and the
  // append, and a store to another field is not the cell that was loaded:
  // all keep the interpreter's copy-append-store.
  for (const char* copied : {"pushAfterClobber", "pushAfterStore", "pushElsewhere"}) {
    std::string body = Body(text, copied);
    EXPECT_TRUE(Has(body, "= *target;")) << body;
    EXPECT_TRUE(Has(body, "    Value list = ")) << body;
    EXPECT_FALSE(Has(body, "target->elems.push_back")) << body;
  }
}

TEST_F(CodegenTest, ForwardingCrossesABranchToAPanicBlock) {
  // grow(xs []int, i int) []int { s := []int{}; s = append(s, xs[i]); return s },
  // with the bounds check as an explicit branch between the load of `s` and
  // the append.
  Type int_list = types_.ListOf(types_.IntType());
  Function* fn = module_.AddFunction("grow", {{"xs", int_list}, {"i", types_.IntType()}},
                                     int_list);
  IrBuilder b(&module_, fn);
  BlockId entry = b.CreateBlock("entry");
  BlockId panic = b.CreateBlock("panic");
  BlockId ok = b.CreateBlock("ok");
  b.SetInsertPoint(entry);
  Operand slot = b.Alloca(int_list);
  b.Store(slot, b.ListNew(types_.IntType()));
  Operand list = b.Load(slot);
  Operand oob = b.BinaryOp(BinOp::kGe, b.Param(1), b.ListLen(b.Param(0)), types_.BoolType());
  b.Br(oob, panic, ok);
  b.SetInsertPoint(panic);
  b.Panic("index out of range");
  b.SetInsertPoint(ok);
  b.Store(slot, b.ListAppend(list, b.ListGet(b.Param(0), b.Param(1))));
  b.Ret(b.Load(slot));
  std::string body = Body(Emit(), "grow");
  // The load is forwarded past the branch, so the append fuses onto the slot.
  EXPECT_TRUE(Has(body, "  a0.elems.push_back(Value::Int(")) << body;
  EXPECT_FALSE(Has(body, "Value list")) << body;
}

}  // namespace
}  // namespace dnsv
