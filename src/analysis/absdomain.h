// The abstract domain used to discharge panic blocks statically.
//
// The domain is a value-graph abstract interpretation of one AbsIR function:
// every abstract value is a ValueId into a hash-consed ValueTable, so two
// registers that compute the same pure expression over the same inputs get
// the *same* id — which is what lets the bounds-check pattern
//
//   %len = listlen %list          ; same id every time the list is unchanged
//   br (or (lt %i 0) (ge %i %len)), panic, cont
//
// be discharged from the loop condition `%i < %len` asserted on the loop's
// body edge: both occurrences of the length are one value, so the relational
// fact (i < len) recorded at the loop head still applies at the check.
//
// State components (all maps over ValueIds, so joins are keyed stably):
//   regs   instruction register -> value
//   mem    abstract location -> stored value. Locations are alloca cells
//          (strong updates: the frontend never lets a stack slot's address
//          escape — PreflightAllocasDontEscape verifies it) or heap
//          addresses (invalidated by any heap store or call).
//   facts  per-value refinements: integer interval, three-valued bool,
//          three-valued nullness. Absent entry = no refinement (top).
//   lt/le/eq relational facts between integer values, recorded by Assert on
//          branch edges and intersected at joins. Queries take the
//          reachability closure: i < lenA, lenA == lenB  proves  i < lenB,
//          which is exactly the nameEq pattern (length-equality check
//          followed by a joint loop over both lists).
//
// Soundness stance: every operation over-approximates the concrete MiniGo
// semantics. Unknown effects (calls, havoc, heap loads) produce generation-
// fresh values with no facts; joins only weaken facts; branch edges are
// dropped only when the abstract state proves them infeasible. The pruning
// pass (prune.h) additionally re-validates and differentially tests the
// result, see docs/ANALYSIS.md for the full argument.
#ifndef DNSV_ANALYSIS_ABSDOMAIN_H_
#define DNSV_ANALYSIS_ABSDOMAIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/interval.h"
#include "src/ir/function.h"

namespace dnsv {

struct InterprocContext;  // summary.h; absdomain.h stays include-cycle-free

enum class Bool3 : uint8_t { kFalse, kTrue, kUnknown };
enum class Null3 : uint8_t { kNull, kNonNull, kMaybe };

using ValueId = uint32_t;

// Hash-consed definitions of abstract values. Pure definitions (constants,
// parameters, alloca cells, pure operators) are interned: structurally equal
// definitions share one id. Fresh definitions (calls, havocs, unknown loads,
// heap allocations) are *not* interned — each dynamic instance gets a new id,
// so two executions of a call in a loop are never conflated. Join values are
// interned per (block, kind, key): the loop-head "merge register" that keeps
// states finite. Interning hashes the Def itself, as TermArena does its nodes.
class ValueTable {
 public:
  ValueTable() = default;
  ValueTable(const ValueTable&) = delete;  // the intern table points at defs_
  ValueTable& operator=(const ValueTable&) = delete;

  struct Def {
    enum class Kind : uint8_t {
      kIntConst, kBoolConst, kNull, kParam, kCell, kPure, kFresh, kJoin,
    };
    Kind kind = Kind::kFresh;
    int64_t imm = 0;        // const payload / param index / cell or fresh instr /
                            // pure immediate (field index)
    Opcode op = Opcode::kHavoc;   // kPure
    BinOp bin_op = BinOp::kAdd;   // kPure kBinOp
    UnOp un_op = UnOp::kNot;      // kPure kUnOp
    std::vector<ValueId> args;    // kPure operands
    bool nonnull = false;         // kFresh from newobject: address is non-nil
    std::string text;             // kPure kCall: callee name
    BlockId block = 0;            // kJoin: the merge block
    char space = 0;               // kJoin: which state component is merged

    bool operator==(const Def&) const = default;
  };

  ValueId IntConst(int64_t value);
  ValueId BoolConst(bool value);
  ValueId Null();
  ValueId Param(uint32_t index);
  ValueId Cell(uint32_t instr);
  ValueId Pure(Opcode op, BinOp bin_op, UnOp un_op, std::vector<ValueId> args, int64_t imm);
  // A call to a pure, heap-independent callee: interned like any other pure
  // operator, so two calls on equal abstract arguments share one value.
  ValueId PureCall(const std::string& callee, std::vector<ValueId> args);
  ValueId Fresh(uint32_t instr, bool nonnull);
  ValueId JoinValue(BlockId block, char space, uint64_t key);

  const Def& def(ValueId id) const { return defs_[id]; }
  size_t size() const { return defs_.size(); }

 private:
  ValueId Intern(Def def);

  // Hash and equality of the definitions behind two ids.
  struct DefHash {
    const std::vector<Def>* defs;
    size_t operator()(ValueId id) const;
  };
  struct DefEq {
    const std::vector<Def>* defs;
    bool operator()(ValueId a, ValueId b) const { return (*defs)[a] == (*defs)[b]; }
  };

  std::vector<Def> defs_;
  std::unordered_set<ValueId, DefHash, DefEq> interned_{64, DefHash{&defs_}, DefEq{&defs_}};
};

// Per-value refinements; the default-constructed value is top.
struct AbsFacts {
  Interval range = Interval::Top();
  Bool3 boolean = Bool3::kUnknown;
  Null3 nullness = Null3::kMaybe;

  bool operator==(const AbsFacts&) const = default;
  bool IsTop() const { return *this == AbsFacts{}; }
};

struct AbsState {
  std::map<uint32_t, ValueId> regs;
  std::map<ValueId, ValueId> mem;
  std::map<ValueId, AbsFacts> facts;
  std::set<std::pair<ValueId, ValueId>> lt;  // (a, b): a < b on this path
  std::set<std::pair<ValueId, ValueId>> le;  // (a, b): a <= b on this path
  std::set<std::pair<ValueId, ValueId>> eq;  // (min, max): equal on this path
};

// Returns true when no alloca address (or gep derived from one) escapes the
// load-addr / store-addr / gep-base positions. Strong updates on stack slots
// are only sound under this condition; functions that violate it are skipped
// by the pruning pass.
bool PreflightAllocasDontEscape(const Function& fn);

// The dataflow Domain (see dataflow.h) that computes panic-discharge facts.
// With a non-null InterprocContext the transfer function consumes callee
// summaries (purity, non-nil returns, constant returns), seeds parameter
// facts into the entry state, and lets protected allocations survive call
// clobbers; without one it reproduces the PR 2 intraprocedural baseline
// exactly.
class PruneDomain {
 public:
  using State = AbsState;

  explicit PruneDomain(ValueTable* values, const InterprocContext* interproc = nullptr)
      : values_(values), interproc_(interproc) {}

  State EntryState(const Function& fn);
  void Transfer(const Function& fn, BlockId block, const State& in,
                std::vector<std::pair<BlockId, State>>* out);
  bool Join(State* into, const State& incoming, const Function& fn, BlockId at, int visits);

  // --- helpers shared with the discharge sweep in prune.cc ---

  // Executes the non-terminator instructions of `block` on a copy of `in`.
  State ExecuteBody(const Function& fn, const State& in, BlockId block);
  // Same, invoking `observer(index, state)` immediately BEFORE each
  // instruction executes — the hook summary.cc uses to read argument facts at
  // call sites and classify store/load addresses under the flow state.
  State ExecuteBodyObserved(const Function& fn, const State& in, BlockId block,
                            const std::function<void(uint32_t, State*)>& observer);
  // True when `addr` roots at memory this function owns (an alloca cell or
  // one of its own kNewObject allocations): a store through it is invisible
  // to callers, a load through it cannot observe caller-owned heap.
  bool AddressIsLocal(const State& state, const Function& fn, ValueId addr) const;
  // Value of an operand in `state` (interns constants on demand).
  ValueId OperandValue(State* state, const Operand& op);
  // Three-valued query of a boolean value under `state`'s facts.
  Bool3 EvalBool(const State& state, ValueId id) const;
  // Conjoins `id == truth` onto `state`; returns false when that is
  // contradictory (the edge is infeasible).
  bool Assert(State* state, ValueId id, bool truth);

  Interval EvalInt(const State& state, ValueId id) const;
  Null3 EvalNull(const State& state, ValueId id) const;

 private:
  void ExecInstr(State* state, const Function& fn, uint32_t index);
  Interval EvalIntAt(const State& state, ValueId id, int depth) const;
  Bool3 EvalBoolAt(const State& state, ValueId id, int depth) const;
  Null3 EvalNullAt(const State& state, ValueId id, int depth) const;
  Interval ListLenAt(const State& state, ValueId list, int depth) const;
  bool AssertAt(State* state, ValueId id, bool truth, int depth);
  bool AssertCmp(State* state, BinOp op, ValueId a, ValueId b, bool truth);
  bool AssertLt(State* state, ValueId a, ValueId b);
  bool AssertLe(State* state, ValueId a, ValueId b);
  bool AssertIntEq(State* state, ValueId a, ValueId b);
  bool AssertIntNe(State* state, ValueId a, ValueId b);
  bool SetNullFact(State* state, ValueId id, bool is_null);
  // The root of an address chain: an alloca cell, or the address value itself
  // for heap pointers.
  ValueId AddressRoot(ValueId id) const;
  bool RootIsCell(ValueId id) const;
  // Drops mem entries whose address is rooted at `root`.
  void EraseRootedAt(State* state, ValueId root);
  // Drops every mem entry not rooted at an alloca cell (heap clobber). With
  // `protect_local`, entries rooted at this function's protected allocations
  // (InterprocContext::protected_allocs) survive: a callee cannot reach an
  // allocation whose address never escapes this function. Stores through
  // unknown pointers must pass protect_local=false — an unknown in-function
  // pointer may still alias a local allocation the dataflow lost track of.
  void EraseHeapEntries(State* state, const Function& fn, bool protect_local);
  // True when `root` is exempt from heap clobbers and takes strong updates:
  // an alloca cell, or a protected allocation of this function.
  bool RootTakesStrongUpdates(const Function& fn, ValueId root) const;
  AbsFacts FactsOf(const State& state, ValueId id) const;

  ValueTable* values_;
  const InterprocContext* interproc_;
  uint32_t generation_ = 0;
};

}  // namespace dnsv

#endif  // DNSV_ANALYSIS_ABSDOMAIN_H_
