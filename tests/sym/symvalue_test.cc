#include "src/sym/symvalue.h"

#include <gtest/gtest.h>

namespace dnsv {
namespace {

class SymValueTest : public ::testing::Test {
 protected:
  TermArena arena_;
};

TEST_F(SymValueTest, LiftConcreteValue) {
  Value v = Value::Struct({Value::Int(7), Value::Bool(true), Value::NullPtr(),
                           Value::List({Value::Int(1), Value::Int(2)})});
  SymValue lifted = LiftValue(v, &arena_);
  ASSERT_EQ(lifted.kind, SymValue::Kind::kStruct);
  int64_t iv = 0;
  EXPECT_TRUE(arena_.AsIntConst(lifted.elems[0].term, &iv));
  EXPECT_EQ(iv, 7);
  bool bv = false;
  EXPECT_TRUE(arena_.AsBoolConst(lifted.elems[1].term, &bv));
  EXPECT_TRUE(bv);
  EXPECT_TRUE(lifted.elems[2].IsNullPtr());
  ASSERT_EQ(lifted.elems[3].kind, SymValue::Kind::kList);
  EXPECT_TRUE(arena_.AsIntConst(lifted.elems[3].list_len, &iv));
  EXPECT_EQ(iv, 2);
}

TEST_F(SymValueTest, LiftMemoryPreservesBlockIds) {
  ConcreteMemory memory;
  BlockIndex a = memory.Alloc(Value::Int(1));
  BlockIndex b = memory.Alloc(Value::List({Value::Int(9)}));
  SymMemory lifted = LiftMemory(memory, &arena_);
  EXPECT_EQ(lifted.num_blocks(), memory.num_blocks());
  int64_t v = 0;
  EXPECT_TRUE(arena_.AsIntConst(lifted.Resolve(a, {})->term, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(arena_.AsIntConst(lifted.Resolve(b, {0})->term, &v));
  EXPECT_EQ(v, 9);
}

TEST_F(SymValueTest, ConcretizeRoundTrip) {
  Value v = Value::Struct({Value::Int(5), Value::List({Value::Bool(false)})});
  SymValue lifted = LiftValue(v, &arena_);
  Value back = ConcretizeValue(lifted, arena_, nullptr);
  EXPECT_EQ(back, v);
}

TEST_F(SymValueTest, ConcretizeUsesModel) {
  SymValue sym = SymValue::OfTerm(arena_.Var("x", Sort::kInt));
  Model model;
  model.Set("x", 42);
  EXPECT_EQ(ConcretizeValue(sym, arena_, &model), Value::Int(42));
}

TEST_F(SymValueTest, ConcretizeSymbolicLengthList) {
  SymValue list;
  list.kind = SymValue::Kind::kList;
  list.list_len = arena_.Var("len", Sort::kInt);
  list.elems = {SymValue::OfTerm(arena_.Var("e0", Sort::kInt)),
                SymValue::OfTerm(arena_.Var("e1", Sort::kInt)),
                SymValue::OfTerm(arena_.Var("e2", Sort::kInt))};
  Model model;
  model.Set("len", 2);
  model.Set("e0", 10);
  model.Set("e1", 20);
  Value v = ConcretizeValue(list, arena_, &model);
  ASSERT_EQ(v.elems.size(), 2u);
  EXPECT_EQ(v.elems[0], Value::Int(10));
  EXPECT_EQ(v.elems[1], Value::Int(20));
}

TEST_F(SymValueTest, SymZeroValueMatchesConcreteZero) {
  TypeTable types;
  Type node = types.StructType("N");
  types.DefineStruct("N", {{"x", types.IntType()},
                           {"next", types.PtrTo(node)},
                           {"xs", types.ListOf(types.IntType())}});
  SymValue zero = SymZeroValue(types, node, &arena_);
  EXPECT_EQ(ConcretizeValue(zero, arena_, nullptr), ZeroValueOf(types, node));
}

// ---- Persistent sharing: copies share nodes, writes copy what they change ----

class SymSharingTest : public SymValueTest {
 protected:
  SymValue Int(int64_t v) { return SymValue::OfTerm(arena_.IntConst(v)); }
  int64_t IntAt(const SymMemory& memory, BlockIndex block, const SymPath& path) {
    const SymValue* value = memory.Resolve(block, path);
    int64_t v = -1;
    EXPECT_TRUE(value != nullptr && arena_.AsIntConst(value->term, &v));
    return v;
  }
};

TEST_F(SymSharingTest, StoreAfterForkIsInvisibleToSiblingAndParent) {
  SymMemory parent;
  BlockIndex b = parent.Alloc(SymValue::Struct({Int(1), Int(2)}));
  SymMemory left = parent;
  SymMemory right = parent;
  ASSERT_TRUE(left.Store(b, {0}, Int(10)));
  ASSERT_TRUE(right.Store(b, {0}, Int(20)));
  EXPECT_EQ(IntAt(parent, b, {0}), 1);
  EXPECT_EQ(IntAt(left, b, {0}), 10);
  EXPECT_EQ(IntAt(right, b, {0}), 20);
  EXPECT_EQ(IntAt(left, b, {1}), 2);
  EXPECT_EQ(IntAt(right, b, {1}), 2);
  // A store that does not resolve changes nothing.
  EXPECT_FALSE(left.Store(b, {5}, Int(3)));
  EXPECT_FALSE(left.Store(b + 1, {}, Int(3)));
}

TEST_F(SymSharingTest, AllocOnOneForkDoesNotShiftTheOthersBlockIds) {
  SymMemory parent;
  parent.Alloc(Int(0));
  SymMemory left = parent;
  SymMemory right = parent;
  BlockIndex left_first = left.Alloc(Int(11));
  BlockIndex left_second = left.Alloc(Int(12));
  BlockIndex right_first = right.Alloc(Int(21));
  EXPECT_EQ(left_first, right_first);
  EXPECT_EQ(left_second, left_first + 1);
  EXPECT_EQ(parent.num_blocks(), 2u);
  EXPECT_EQ(left.num_blocks(), 4u);
  EXPECT_EQ(right.num_blocks(), 3u);
  EXPECT_EQ(IntAt(left, left_first, {}), 11);
  EXPECT_EQ(IntAt(right, right_first, {}), 21);
  EXPECT_EQ(right.Resolve(left_second, {}), nullptr);
  EXPECT_EQ(parent.Resolve(left_first, {}), nullptr);
}

TEST_F(SymSharingTest, NestedStoreCopiesOnlyTheSpine) {
  SymMemory memory;
  BlockIndex b = memory.Alloc(SymValue::Struct({SymValue::Struct({Int(1), Int(2)}),
                                                SymValue::Struct({Int(3), Int(4)}),
                                                SymValue::List({Int(5), Int(6)}, &arena_)}));
  SymMemory before = memory;
  ASSERT_TRUE(memory.Store(b, {0, 1}, Int(9)));
  EXPECT_EQ(IntAt(before, b, {0, 1}), 2);
  EXPECT_EQ(IntAt(memory, b, {0, 1}), 9);
  // The spine (block root, field 0) was copied...
  EXPECT_NE(before.Resolve(b, {})->elems.id(), memory.Resolve(b, {})->elems.id());
  EXPECT_NE(before.Resolve(b, {0})->elems.id(), memory.Resolve(b, {0})->elems.id());
  // ...and the untouched siblings are the very same nodes.
  EXPECT_EQ(before.Resolve(b, {1})->elems.id(), memory.Resolve(b, {1})->elems.id());
  EXPECT_EQ(before.Resolve(b, {2})->elems.id(), memory.Resolve(b, {2})->elems.id());
  EXPECT_TRUE(before.Resolve(b, {0, 0})->SameAs(*memory.Resolve(b, {0, 0})));
  // Nodes this memory owns alone are written in place: no second copy.
  const void* field0 = memory.Resolve(b, {0})->elems.id();
  ASSERT_TRUE(memory.Store(b, {0, 0}, Int(8)));
  EXPECT_EQ(memory.Resolve(b, {0})->elems.id(), field0);
  EXPECT_EQ(IntAt(before, b, {0, 0}), 1);
}

TEST_F(SymSharingTest, ValueCopiesShareAndElementWritesCopy) {
  SymValue list = SymValue::List({Int(1), Int(2)}, &arena_);
  SymValue copy = list;
  EXPECT_TRUE(copy.SameAs(list));
  *copy.elems.Mutable(0) = Int(7);
  copy.elems.PushBack(Int(3));
  EXPECT_EQ(list.elems.size(), 2u);
  EXPECT_EQ(list.elems[0].term, arena_.IntConst(1));
  EXPECT_EQ(copy.elems.size(), 3u);
  EXPECT_EQ(copy.elems[0].term, arena_.IntConst(7));
  EXPECT_EQ(copy.elems[1].elems.id(), list.elems[1].elems.id());
}

TEST_F(SymSharingTest, ImporterImportsASharedSubtreeOnce) {
  SymValue shared = SymValue::Struct(
      {SymValue::OfTerm(arena_.Var("x", Sort::kInt)), SymValue::List({Int(4)}, &arena_)});
  SymValue a = SymValue::Struct({shared, shared});
  SymValue b = SymValue::Struct({shared, Int(1)});
  TermArena to;
  TermImporter terms(&arena_, &to);
  SymValueImporter importer(&terms);
  SymValue imported_a = importer.Import(a);
  SymValue imported_b = importer.Import(b);
  // One imported node stands for every occurrence of the shared one.
  EXPECT_EQ(imported_a.elems[0].elems.id(), imported_a.elems[1].elems.id());
  EXPECT_EQ(imported_a.elems[0].elems.id(), imported_b.elems[0].elems.id());
  EXPECT_NE(imported_a.elems[0].elems.id(), shared.elems.id());
  EXPECT_EQ(to.ToString(imported_a.elems[0].elems[0].term), "x");
  EXPECT_EQ(to.ToString(imported_b.elems[1].term), "1");
  EXPECT_EQ(imported_a.ToString(to), a.ToString(arena_));
}

}  // namespace
}  // namespace dnsv
