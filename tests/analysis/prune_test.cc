#include "src/analysis/prune.h"

#include <gtest/gtest.h>

#include "src/analysis/absdomain.h"
#include "src/analysis/dataflow.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/validate.h"

namespace dnsv {
namespace {

class PruneTest : public ::testing::Test {
 protected:
  PruneTest() : module_(&types_) {}

  // The canonical frontend shape for `for i := 0; i < len(xs); ... { xs[i] }`:
  // the loop bound and the bounds check both measure the same list, so the
  // guard's panic side is statically infeasible.
  Function* BuildBoundedLoop() {
    Type list_ty = types_.ListOf(types_.IntType());
    Function* fn = module_.AddFunction("sumList", {{"xs", list_ty}}, types_.IntType());
    IrBuilder b(&module_, fn);
    BlockId entry = b.CreateBlock("entry");
    BlockId head = b.CreateBlock("head");
    BlockId body = b.CreateBlock("body");
    BlockId ok = b.CreateBlock("ok");
    BlockId exit = b.CreateBlock("exit");
    b.SetInsertPoint(entry);
    Operand acc = b.Alloca(types_.IntType());
    b.Store(acc, b.Int(0));
    Operand i = b.Alloca(types_.IntType());
    b.Store(i, b.Int(0));
    b.Jmp(head);
    b.SetInsertPoint(head);
    Operand iv = b.Load(i);
    Operand n = b.ListLen(b.Param(0));
    Operand in_range = b.BinaryOp(BinOp::kLt, iv, n, types_.BoolType());
    b.Br(in_range, body, exit);
    b.SetInsertPoint(body);
    Operand iv2 = b.Load(i);
    Operand neg = b.BinaryOp(BinOp::kLt, iv2, b.Int(0), types_.BoolType());
    Operand n2 = b.ListLen(b.Param(0));
    Operand oob = b.BinaryOp(BinOp::kGe, iv2, n2, types_.BoolType());
    Operand bad = b.BinaryOp(BinOp::kOr, neg, oob, types_.BoolType());
    BlockId panic_bb = b.GetPanicBlock("index out of range");
    b.Br(bad, panic_bb, ok);
    b.SetInsertPoint(ok);
    Operand elem = b.ListGet(b.Param(0), iv2);
    Operand sum = b.BinaryOp(BinOp::kAdd, b.Load(acc), elem, types_.IntType());
    b.Store(acc, sum);
    Operand next = b.BinaryOp(BinOp::kAdd, b.Load(i), b.Int(1), types_.IntType());
    b.Store(i, next);
    b.Jmp(head);
    b.SetInsertPoint(exit);
    b.Ret(b.Load(acc));
    return fn;
  }

  // The guard checks a caller-supplied index: nothing bounds it, so the
  // panic side stays feasible and the pruner must keep the branch.
  Function* BuildUnprovableGuard() {
    Type list_ty = types_.ListOf(types_.IntType());
    Function* fn = module_.AddFunction(
        "getAt", {{"xs", list_ty}, {"k", types_.IntType()}}, types_.IntType());
    IrBuilder b(&module_, fn);
    BlockId entry = b.CreateBlock("entry");
    BlockId ok = b.CreateBlock("ok");
    b.SetInsertPoint(entry);
    Operand k = b.Param(1);
    Operand neg = b.BinaryOp(BinOp::kLt, k, b.Int(0), types_.BoolType());
    Operand n = b.ListLen(b.Param(0));
    Operand oob = b.BinaryOp(BinOp::kGe, k, n, types_.BoolType());
    Operand bad = b.BinaryOp(BinOp::kOr, neg, oob, types_.BoolType());
    BlockId panic_bb = b.GetPanicBlock("index out of range");
    b.Br(bad, panic_bb, ok);
    b.SetInsertPoint(ok);
    b.Ret(b.ListGet(b.Param(0), k));
    return fn;
  }

  TypeTable types_;
  Module module_;
};

TEST_F(PruneTest, DischargesLoopBoundedIndexCheck) {
  Function* fn = BuildBoundedLoop();
  ASSERT_TRUE(ValidateFunction(module_, *fn).ok());
  std::string before = PrintFunction(module_, *fn);
  EXPECT_NE(before.find("panic \"index out of range\""), std::string::npos);

  PruneStats stats = PruneFunction(module_, fn);
  EXPECT_EQ(stats.panics_discharged, 1);
  EXPECT_EQ(stats.panic_blocks_removed, 1);
  EXPECT_EQ(stats.functions_skipped, 0);
  EXPECT_GT(stats.PathsPruned(), 0);

  // Golden diff: the guard became a jmp and the panic block is gone.
  std::string after = PrintFunction(module_, *fn);
  EXPECT_EQ(after.find("panic"), std::string::npos) << after;
  EXPECT_NE(after.find("jmp"), std::string::npos);
  // The pruned function satisfies the strict validator: panic blocks
  // terminal, every block reachable.
  ValidateOptions strict;
  strict.require_reachable = true;
  EXPECT_TRUE(ValidateFunction(module_, *fn, strict).ok());
}

TEST_F(PruneTest, KeepsGuardOnUnconstrainedIndex) {
  Function* fn = BuildUnprovableGuard();
  std::string before = PrintFunction(module_, *fn);
  PruneStats stats = PruneFunction(module_, fn);
  EXPECT_EQ(stats.panics_discharged, 0);
  // Byte-identical: a pruner that cannot prove anything must change nothing.
  EXPECT_EQ(PrintFunction(module_, *fn), before);
}

TEST_F(PruneTest, SolverDropsPanicEdgeOfDischargedGuard) {
  Function* fn = BuildBoundedLoop();
  ValueTable values;
  PruneDomain domain(&values);
  ASSERT_TRUE(PreflightAllocasDontEscape(*fn));
  DataflowResult<PruneDomain> solved = SolveForwardDataflow(*fn, &domain);
  ASSERT_TRUE(solved.converged);
  // Every block is reached except the panic block: its only incoming edge is
  // the infeasible side of the discharged guard.
  for (BlockId blk = 0; blk < fn->num_blocks(); ++blk) {
    if (fn->block(blk).is_panic_block) {
      EXPECT_FALSE(solved.block_in[blk].has_value()) << "bb" << blk;
    } else {
      EXPECT_TRUE(solved.block_in[blk].has_value()) << "bb" << blk;
    }
  }
}

TEST_F(PruneTest, ModuleAggregatesStats) {
  Function* bounded = BuildBoundedLoop();
  Function* unprovable = BuildUnprovableGuard();
  // Both functions are entry points: no call-site facts specialize them.
  PruneOptions options;
  options.entry_points = {bounded->name(), unprovable->name()};
  PruneStats stats = PruneModule(&module_, options, nullptr);
  EXPECT_EQ(stats.functions_analyzed, 2);
  EXPECT_EQ(stats.panics_discharged, 1);
  EXPECT_EQ(stats.panic_blocks_removed, 1);
  EXPECT_NE(stats.ToString(), "");
}

}  // namespace
}  // namespace dnsv
