#include "src/analysis/absdomain.h"

#include <algorithm>
#include <functional>

#include "src/analysis/callgraph.h"
#include "src/analysis/summary.h"
#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

constexpr int kMaxEvalDepth = 16;

Bool3 Not3(Bool3 v) {
  if (v == Bool3::kTrue) return Bool3::kFalse;
  if (v == Bool3::kFalse) return Bool3::kTrue;
  return Bool3::kUnknown;
}

Bool3 And3(Bool3 a, Bool3 b) {
  if (a == Bool3::kFalse || b == Bool3::kFalse) return Bool3::kFalse;
  if (a == Bool3::kTrue && b == Bool3::kTrue) return Bool3::kTrue;
  return Bool3::kUnknown;
}

Bool3 Or3(Bool3 a, Bool3 b) {
  if (a == Bool3::kTrue || b == Bool3::kTrue) return Bool3::kTrue;
  if (a == Bool3::kFalse && b == Bool3::kFalse) return Bool3::kFalse;
  return Bool3::kUnknown;
}

Bool3 FromBool(bool v) { return v ? Bool3::kTrue : Bool3::kFalse; }

AbsFacts JoinFacts(const AbsFacts& prev, const AbsFacts& inc, bool widen) {
  AbsFacts out;
  Interval joined = Join(prev.range, inc.range);
  out.range = widen ? Widen(prev.range, joined) : joined;
  out.boolean = prev.boolean == inc.boolean ? prev.boolean : Bool3::kUnknown;
  out.nullness = prev.nullness == inc.nullness ? prev.nullness : Null3::kMaybe;
  return out;
}

std::pair<ValueId, ValueId> EqPair(ValueId a, ValueId b) {
  return {std::min(a, b), std::max(a, b)};
}

// Reachability closure of the relational sets: 2 when a chain from `a` to `b`
// contains a strict (<) edge, 1 for a non-strict (<= / ==) chain, 0 when `b`
// is not reachable. This is what turns  i < lenA, lenA == lenB  into
// i < lenB, and  i < lenZone, lenZone <= lenName  into  i < lenName. Each
// value enters the worklist at most twice (strength only upgrades), so the
// walk terminates on any relation graph.
int RelReach(const AbsState& state, ValueId a, ValueId b) {
  if (a == b) return 1;
  std::map<ValueId, int> best;
  std::vector<std::pair<ValueId, int>> work = {{a, 1}};
  best[a] = 1;
  while (!work.empty()) {
    auto [cur, strength] = work.back();
    work.pop_back();
    auto push = [&](ValueId next, int s) {
      int& slot = best[next];
      if (s > slot) {
        slot = s;
        work.emplace_back(next, s);
      }
    };
    for (const auto& [u, v] : state.lt) {
      if (u == cur) push(v, 2);
    }
    for (const auto& [u, v] : state.le) {
      if (u == cur) push(v, strength);
    }
    for (const auto& [u, v] : state.eq) {
      if (u == cur) push(v, strength);
      if (v == cur) push(u, strength);
    }
  }
  auto it = best.find(b);
  return it == best.end() ? 0 : it->second;
}

}  // namespace

size_t ValueTable::DefHash::operator()(ValueId id) const {
  const Def& def = (*defs)[id];
  uint64_t h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(def.args.data()),
                                        def.args.size() * sizeof(ValueId)));
  h = Fnv1a64(def.text, h);
  for (uint64_t word :
       {static_cast<uint64_t>(def.kind), static_cast<uint64_t>(def.imm),
        static_cast<uint64_t>(def.op), static_cast<uint64_t>(def.bin_op),
        static_cast<uint64_t>(def.un_op), static_cast<uint64_t>(def.nonnull),
        static_cast<uint64_t>(def.block), static_cast<uint64_t>(def.space)}) {
    h = (h ^ word) * 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

// The candidate goes in at the next id and is taken back out when the table
// already holds an equal definition, so ids are handed out in first-seen
// order.
ValueId ValueTable::Intern(Def def) {
  ValueId id = static_cast<ValueId>(defs_.size());
  defs_.push_back(std::move(def));
  auto [it, inserted] = interned_.insert(id);
  if (!inserted) {
    defs_.pop_back();
    return *it;
  }
  return id;
}

ValueId ValueTable::IntConst(int64_t value) {
  Def def;
  def.kind = Def::Kind::kIntConst;
  def.imm = value;
  return Intern(std::move(def));
}

ValueId ValueTable::BoolConst(bool value) {
  Def def;
  def.kind = Def::Kind::kBoolConst;
  def.imm = value ? 1 : 0;
  return Intern(std::move(def));
}

ValueId ValueTable::Null() {
  Def def;
  def.kind = Def::Kind::kNull;
  return Intern(std::move(def));
}

ValueId ValueTable::Param(uint32_t index) {
  Def def;
  def.kind = Def::Kind::kParam;
  def.imm = index;
  return Intern(std::move(def));
}

ValueId ValueTable::Cell(uint32_t instr) {
  Def def;
  def.kind = Def::Kind::kCell;
  def.imm = instr;
  return Intern(std::move(def));
}

ValueId ValueTable::Pure(Opcode op, BinOp bin_op, UnOp un_op, std::vector<ValueId> args,
                         int64_t imm) {
  Def def;
  def.kind = Def::Kind::kPure;
  def.op = op;
  def.bin_op = bin_op;
  def.un_op = un_op;
  def.args = std::move(args);
  def.imm = imm;
  return Intern(std::move(def));
}

ValueId ValueTable::PureCall(const std::string& callee, std::vector<ValueId> args) {
  Def def;
  def.kind = Def::Kind::kPure;
  def.op = Opcode::kCall;
  def.args = std::move(args);
  def.text = callee;
  return Intern(std::move(def));
}

ValueId ValueTable::Fresh(uint32_t instr, bool nonnull) {
  Def def;
  def.kind = Def::Kind::kFresh;
  def.imm = instr;
  def.nonnull = nonnull;
  ValueId id = static_cast<ValueId>(defs_.size());
  defs_.push_back(std::move(def));  // never interned: each instance is new
  return id;
}

ValueId ValueTable::JoinValue(BlockId block, char space, uint64_t key) {
  Def def;
  def.kind = Def::Kind::kJoin;
  def.imm = static_cast<int64_t>(key);
  def.block = block;
  def.space = space;
  return Intern(std::move(def));
}

bool PreflightAllocasDontEscape(const Function& fn) {
  // Registers holding an alloca address or a gep derived from one.
  std::vector<bool> stack_addr(fn.num_instrs(), false);
  for (uint32_t i = 0; i < fn.num_instrs(); ++i) {
    const Instr& instr = fn.instr(i);
    if (instr.op == Opcode::kAlloca) {
      stack_addr[i] = true;
    } else if (instr.op == Opcode::kGep) {
      const Operand& base = instr.operands[0];
      if (base.kind == Operand::Kind::kReg && !Function::IsParamReg(base.reg) &&
          stack_addr[base.reg]) {
        stack_addr[i] = true;
      }
    }
  }
  for (uint32_t i = 0; i < fn.num_instrs(); ++i) {
    const Instr& instr = fn.instr(i);
    for (size_t k = 0; k < instr.operands.size(); ++k) {
      const Operand& op = instr.operands[k];
      if (op.kind != Operand::Kind::kReg || Function::IsParamReg(op.reg) ||
          !stack_addr[op.reg]) {
        continue;
      }
      bool allowed = (instr.op == Opcode::kLoad && k == 0) ||
                     (instr.op == Opcode::kStore && k == 0) ||
                     (instr.op == Opcode::kGep && k == 0);
      if (!allowed) {
        return false;
      }
    }
  }
  return true;
}

AbsState PruneDomain::EntryState(const Function& fn) {
  AbsState state;
  if (interproc_ != nullptr) {
    const std::vector<AbsFacts>* facts = interproc_->ParamFactsFor(fn.name());
    if (facts != nullptr) {
      for (size_t i = 0; i < facts->size() && i < fn.params().size(); ++i) {
        if (!(*facts)[i].IsTop()) {
          state.facts[values_->Param(static_cast<uint32_t>(i))] = (*facts)[i];
        }
      }
    }
  }
  return state;
}

ValueId PruneDomain::OperandValue(State* state, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      if (Function::IsParamReg(op.reg)) {
        return values_->Param(Function::ParamIndex(op.reg));
      } else {
        auto it = state->regs.find(op.reg);
        if (it != state->regs.end()) return it->second;
        // Defined in a block this path never executed (index-order use
        // without dominance); treat as unknown.
        return values_->Fresh(op.reg, false);
      }
    case Operand::Kind::kIntConst:
      return values_->IntConst(op.imm);
    case Operand::Kind::kBoolConst:
      return values_->BoolConst(op.imm != 0);
    case Operand::Kind::kNull:
      return values_->Null();
    case Operand::Kind::kNone:
      break;
  }
  DNSV_CHECK_MSG(false, "invalid operand");
  return 0;
}

ValueId PruneDomain::AddressRoot(ValueId id) const {
  while (true) {
    const ValueTable::Def& def = values_->def(id);
    if (def.kind == ValueTable::Def::Kind::kPure && def.op == Opcode::kGep) {
      id = def.args[0];
      continue;
    }
    return id;
  }
}

bool PruneDomain::RootIsCell(ValueId id) const {
  return values_->def(AddressRoot(id)).kind == ValueTable::Def::Kind::kCell;
}

void PruneDomain::EraseRootedAt(State* state, ValueId root) {
  for (auto it = state->mem.begin(); it != state->mem.end();) {
    if (AddressRoot(it->first) == root) {
      it = state->mem.erase(it);
    } else {
      ++it;
    }
  }
}

bool PruneDomain::RootTakesStrongUpdates(const Function& fn, ValueId root) const {
  const ValueTable::Def& def = values_->def(root);
  if (def.kind == ValueTable::Def::Kind::kCell) return true;
  // A protected allocation behaves like a stack slot: the escape analysis
  // proved its address never leaves this function, so no callee and no other
  // tracked pointer can alias it. (An untracked in-function alias would root
  // at a non-newobject Fresh value and clobber conservatively instead.)
  return def.kind == ValueTable::Def::Kind::kFresh && interproc_ != nullptr &&
         def.imm >= 0 && static_cast<size_t>(def.imm) < fn.num_instrs() &&
         fn.instr(static_cast<uint32_t>(def.imm)).op == Opcode::kNewObject &&
         interproc_->IsProtectedAlloc(fn.name(), static_cast<uint32_t>(def.imm));
}

void PruneDomain::EraseHeapEntries(State* state, const Function& fn, bool protect_local) {
  for (auto it = state->mem.begin(); it != state->mem.end();) {
    ValueId root = AddressRoot(it->first);
    bool keep = values_->def(root).kind == ValueTable::Def::Kind::kCell ||
                (protect_local && RootTakesStrongUpdates(fn, root));
    if (!keep) {
      it = state->mem.erase(it);
    } else {
      ++it;
    }
  }
}

bool PruneDomain::AddressIsLocal(const State& state, const Function& fn, ValueId addr) const {
  (void)state;
  ValueId root = AddressRoot(addr);
  const ValueTable::Def& def = values_->def(root);
  if (def.kind == ValueTable::Def::Kind::kCell) return true;
  return def.kind == ValueTable::Def::Kind::kFresh && def.imm >= 0 &&
         static_cast<size_t>(def.imm) < fn.num_instrs() &&
         fn.instr(static_cast<uint32_t>(def.imm)).op == Opcode::kNewObject;
}

void PruneDomain::ExecInstr(State* state, const Function& fn, uint32_t index) {
  const Instr& instr = fn.instr(index);
  auto operand = [&](size_t i) { return OperandValue(state, instr.operands[i]); };
  switch (instr.op) {
    case Opcode::kBinOp:
      state->regs[index] =
          values_->Pure(instr.op, instr.bin_op, UnOp::kNot, {operand(0), operand(1)}, 0);
      break;
    case Opcode::kUnOp:
      state->regs[index] = values_->Pure(instr.op, BinOp::kAdd, instr.un_op, {operand(0)}, 0);
      break;
    case Opcode::kAlloca:
      state->regs[index] = values_->Cell(index);
      break;
    case Opcode::kNewObject:
      state->regs[index] = values_->Fresh(index, /*nonnull=*/true);
      break;
    case Opcode::kLoad: {
      ValueId addr = operand(0);
      auto it = state->mem.find(addr);
      if (it != state->mem.end()) {
        state->regs[index] = it->second;
      } else {
        ValueId fresh = values_->Fresh(index, false);
        state->mem.emplace(addr, fresh);  // repeated loads see one value until
                                          // a clobber drops the entry
        state->regs[index] = fresh;
      }
      break;
    }
    case Opcode::kStore: {
      ValueId addr = operand(0);
      ValueId value = operand(1);
      ValueId root = AddressRoot(addr);
      if (RootTakesStrongUpdates(fn, root)) {
        // Strong update: the preflight guarantees nothing else aliases a
        // stack slot, and the escape analysis guarantees it for protected
        // allocations. A partial (gep) store first drops everything known
        // about the slot, then records the one written component.
        EraseRootedAt(state, root);
      } else {
        // Any heap location may alias `addr` — including a protected
        // allocation this unknown pointer secretly points at, so
        // protect_local must stay off here.
        EraseHeapEntries(state, fn, /*protect_local=*/false);
      }
      state->mem[addr] = value;
      break;
    }
    case Opcode::kGep: {
      std::vector<ValueId> args;
      args.reserve(instr.operands.size());
      for (size_t i = 0; i < instr.operands.size(); ++i) args.push_back(operand(i));
      state->regs[index] = values_->Pure(instr.op, BinOp::kAdd, UnOp::kNot, std::move(args), 0);
      break;
    }
    case Opcode::kCall: {
      const CalleeSummary* summary =
          interproc_ != nullptr ? interproc_->SummaryFor(instr.text) : nullptr;
      bool intrinsic = interproc_ != nullptr && IsIntrinsicCallee(instr.text);
      bool pure = intrinsic || (summary != nullptr && summary->pure);
      // Evaluate arguments before any clobber so the interned value reflects
      // the pre-call state.
      ValueId result;
      if (pure && (intrinsic || summary->heap_independent)) {
        std::vector<ValueId> args;
        args.reserve(instr.operands.size());
        for (size_t i = 0; i < instr.operands.size(); ++i) args.push_back(operand(i));
        result = values_->PureCall(instr.text, std::move(args));
      } else {
        result = values_->Fresh(index, summary != nullptr && summary->returns_nonnull);
      }
      if (!pure) {
        // The callee may mutate any heap object it can reach; protected
        // allocations of this function are by construction out of reach.
        EraseHeapEntries(state, fn, /*protect_local=*/true);
      }
      state->regs[index] = result;
      if (summary != nullptr && summary->analyzed) {
        AbsFacts& facts = state->facts[result];
        if (summary->returns_nonnull && facts.nullness == Null3::kMaybe) {
          facts.nullness = Null3::kNonNull;
        }
        if (!summary->return_range.IsTop()) {
          std::optional<Interval> met = Meet(facts.range, summary->return_range);
          if (met) facts.range = *met;
        }
        if (summary->return_bool != Bool3::kUnknown && facts.boolean == Bool3::kUnknown) {
          facts.boolean = summary->return_bool;
        }
        if (facts.IsTop()) state->facts.erase(result);
      }
      break;
    }
    case Opcode::kHavoc:
      state->regs[index] = values_->Fresh(index, false);
      break;
    case Opcode::kListNew:
    case Opcode::kListLen:
    case Opcode::kListGet:
    case Opcode::kListSet:
    case Opcode::kListAppend: {
      std::vector<ValueId> args;
      args.reserve(instr.operands.size());
      for (size_t i = 0; i < instr.operands.size(); ++i) args.push_back(operand(i));
      state->regs[index] = values_->Pure(instr.op, BinOp::kAdd, UnOp::kNot, std::move(args), 0);
      break;
    }
    case Opcode::kFieldGet:
      state->regs[index] =
          values_->Pure(instr.op, BinOp::kAdd, UnOp::kNot, {operand(0)}, instr.field_index);
      break;
    case Opcode::kBr:
    case Opcode::kJmp:
    case Opcode::kRet:
    case Opcode::kPanic:
      DNSV_CHECK_MSG(false, "terminator in ExecInstr");
      break;
  }
}

AbsState PruneDomain::ExecuteBody(const Function& fn, const State& in, BlockId block) {
  State state = in;
  const BasicBlock& bb = fn.block(block);
  for (size_t i = 0; i + 1 < bb.instrs.size(); ++i) {
    ExecInstr(&state, fn, bb.instrs[i]);
  }
  return state;
}

AbsState PruneDomain::ExecuteBodyObserved(
    const Function& fn, const State& in, BlockId block,
    const std::function<void(uint32_t, State*)>& observer) {
  State state = in;
  const BasicBlock& bb = fn.block(block);
  for (size_t i = 0; i + 1 < bb.instrs.size(); ++i) {
    observer(bb.instrs[i], &state);
    ExecInstr(&state, fn, bb.instrs[i]);
  }
  return state;
}

// --- evaluation ---

Interval PruneDomain::ListLenAt(const State& state, ValueId list, int depth) const {
  Interval len = EvalIntAt(state, list, depth);
  std::optional<Interval> met = Meet(len, Interval{0, Interval::kPosInf});
  return met ? *met : Interval{0, Interval::kPosInf};
}

Interval PruneDomain::EvalIntAt(const State& state, ValueId id, int depth) const {
  Interval base = Interval::Top();
  if (depth < kMaxEvalDepth) {
    const ValueTable::Def& def = values_->def(id);
    switch (def.kind) {
      case ValueTable::Def::Kind::kIntConst:
        base = Interval::Const(def.imm);
        break;
      case ValueTable::Def::Kind::kPure:
        switch (def.op) {
          case Opcode::kBinOp: {
            if (def.bin_op == BinOp::kAdd || def.bin_op == BinOp::kSub ||
                def.bin_op == BinOp::kMul) {
              Interval a = EvalIntAt(state, def.args[0], depth + 1);
              Interval b = EvalIntAt(state, def.args[1], depth + 1);
              base = def.bin_op == BinOp::kAdd   ? IntervalAdd(a, b)
                     : def.bin_op == BinOp::kSub ? IntervalSub(a, b)
                                                 : IntervalMul(a, b);
            } else if (def.bin_op == BinOp::kMod) {
              Interval a = EvalIntAt(state, def.args[0], depth + 1);
              Interval b = EvalIntAt(state, def.args[1], depth + 1);
              if (a.lo >= 0 && b.lo >= 1) {  // Go semantics: result in [0, b)
                base = Interval{0, b.hi == Interval::kPosInf ? Interval::kPosInf : b.hi - 1};
              }
            }
            break;
          }
          case Opcode::kUnOp:
            if (def.un_op == UnOp::kNeg) {
              base = IntervalNeg(EvalIntAt(state, def.args[0], depth + 1));
            }
            break;
          case Opcode::kListLen:
            base = ListLenAt(state, def.args[0], depth + 1);
            break;
          // For list-typed values the range channel tracks the *length*.
          case Opcode::kListNew:
            base = Interval::Const(0);
            break;
          case Opcode::kListAppend:
            base = IntervalAdd(ListLenAt(state, def.args[0], depth + 1), Interval::Const(1));
            break;
          case Opcode::kListSet:
            base = ListLenAt(state, def.args[0], depth + 1);
            break;
          default:
            break;
        }
        break;
      default:
        break;
    }
  }
  auto it = state.facts.find(id);
  if (it != state.facts.end()) {
    std::optional<Interval> met = Meet(base, it->second.range);
    // An empty meet means this state is contradictory (the path is
    // infeasible); either bound is then vacuously sound.
    return met ? *met : it->second.range;
  }
  return base;
}

Bool3 PruneDomain::EvalBoolAt(const State& state, ValueId id, int depth) const {
  Bool3 base = Bool3::kUnknown;
  if (depth < kMaxEvalDepth) {
    const ValueTable::Def& def = values_->def(id);
    if (def.kind == ValueTable::Def::Kind::kBoolConst) {
      base = FromBool(def.imm != 0);
    } else if (def.kind == ValueTable::Def::Kind::kPure && def.op == Opcode::kUnOp &&
               def.un_op == UnOp::kNot) {
      base = Not3(EvalBoolAt(state, def.args[0], depth + 1));
    } else if (def.kind == ValueTable::Def::Kind::kPure && def.op == Opcode::kBinOp) {
      ValueId a = def.args[0];
      ValueId b = def.args[1];
      switch (def.bin_op) {
        case BinOp::kAnd:
          base = And3(EvalBoolAt(state, a, depth + 1), EvalBoolAt(state, b, depth + 1));
          break;
        case BinOp::kOr:
          base = Or3(EvalBoolAt(state, a, depth + 1), EvalBoolAt(state, b, depth + 1));
          break;
        case BinOp::kBoolEq:
        case BinOp::kBoolNe: {
          Bool3 va = EvalBoolAt(state, a, depth + 1);
          Bool3 vb = EvalBoolAt(state, b, depth + 1);
          if (a == b) {
            base = FromBool(def.bin_op == BinOp::kBoolEq);
          } else if (va != Bool3::kUnknown && vb != Bool3::kUnknown) {
            base = FromBool((va == vb) == (def.bin_op == BinOp::kBoolEq));
          }
          break;
        }
        case BinOp::kPtrEq:
        case BinOp::kPtrNe: {
          Bool3 eq = Bool3::kUnknown;
          if (a == b) {
            eq = Bool3::kTrue;
          } else {
            Null3 na = EvalNullAt(state, a, depth + 1);
            Null3 nb = EvalNullAt(state, b, depth + 1);
            if (na == Null3::kNull && nb == Null3::kNull) {
              eq = Bool3::kTrue;
            } else if ((na == Null3::kNull && nb == Null3::kNonNull) ||
                       (na == Null3::kNonNull && nb == Null3::kNull)) {
              eq = Bool3::kFalse;
            }
          }
          base = def.bin_op == BinOp::kPtrEq ? eq : Not3(eq);
          break;
        }
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
        case BinOp::kEq:
        case BinOp::kNe: {
          if (a == b) {
            base = FromBool(def.bin_op == BinOp::kEq || def.bin_op == BinOp::kLe ||
                            def.bin_op == BinOp::kGe);
            break;
          }
          Interval ia = EvalIntAt(state, a, depth + 1);
          Interval ib = EvalIntAt(state, b, depth + 1);
          auto known_lt = [&](ValueId x, ValueId y, const Interval& ix, const Interval& iy) {
            return ProvablyLt(ix, iy) || RelReach(state, x, y) == 2;
          };
          auto known_le = [&](ValueId x, ValueId y, const Interval& ix, const Interval& iy) {
            return ProvablyLe(ix, iy) || RelReach(state, x, y) >= 1;
          };
          auto known_eq = [&](ValueId x, ValueId y) { return state.eq.count(EqPair(x, y)) > 0; };
          switch (def.bin_op) {
            case BinOp::kLt:
              if (known_lt(a, b, ia, ib)) base = Bool3::kTrue;
              else if (known_le(b, a, ib, ia)) base = Bool3::kFalse;
              break;
            case BinOp::kLe:
              if (known_le(a, b, ia, ib)) base = Bool3::kTrue;
              else if (known_lt(b, a, ib, ia)) base = Bool3::kFalse;
              break;
            case BinOp::kGt:
              if (known_lt(b, a, ib, ia)) base = Bool3::kTrue;
              else if (known_le(a, b, ia, ib)) base = Bool3::kFalse;
              break;
            case BinOp::kGe:
              if (known_le(b, a, ib, ia)) base = Bool3::kTrue;
              else if (known_lt(a, b, ia, ib)) base = Bool3::kFalse;
              break;
            case BinOp::kEq:
              if ((ia.IsConst() && ib.IsConst() && ia.lo == ib.lo) || known_eq(a, b))
                base = Bool3::kTrue;
              else if (ProvablyNe(ia, ib) || known_lt(a, b, ia, ib) || known_lt(b, a, ib, ia))
                base = Bool3::kFalse;
              break;
            case BinOp::kNe:
              if ((ia.IsConst() && ib.IsConst() && ia.lo == ib.lo) || known_eq(a, b))
                base = Bool3::kFalse;
              else if (ProvablyNe(ia, ib) || known_lt(a, b, ia, ib) || known_lt(b, a, ib, ia))
                base = Bool3::kTrue;
              break;
            default:
              break;
          }
          break;
        }
        default:
          break;
      }
    }
  }
  if (base != Bool3::kUnknown) return base;
  auto it = state.facts.find(id);
  return it != state.facts.end() ? it->second.boolean : Bool3::kUnknown;
}

Null3 PruneDomain::EvalNullAt(const State& state, ValueId id, int depth) const {
  Null3 base = Null3::kMaybe;
  if (depth < kMaxEvalDepth) {
    const ValueTable::Def& def = values_->def(id);
    switch (def.kind) {
      case ValueTable::Def::Kind::kNull:
        base = Null3::kNull;
        break;
      case ValueTable::Def::Kind::kCell:
        base = Null3::kNonNull;
        break;
      case ValueTable::Def::Kind::kFresh:
        if (def.nonnull) base = Null3::kNonNull;
        break;
      case ValueTable::Def::Kind::kPure:
        if (def.op == Opcode::kGep) {
          base = EvalNullAt(state, def.args[0], depth + 1);
        }
        break;
      default:
        break;
    }
  }
  if (base != Null3::kMaybe) return base;
  auto it = state.facts.find(id);
  return it != state.facts.end() ? it->second.nullness : Null3::kMaybe;
}

Interval PruneDomain::EvalInt(const State& state, ValueId id) const {
  return EvalIntAt(state, id, 0);
}

Bool3 PruneDomain::EvalBool(const State& state, ValueId id) const {
  return EvalBoolAt(state, id, 0);
}

Null3 PruneDomain::EvalNull(const State& state, ValueId id) const {
  return EvalNullAt(state, id, 0);
}

// --- assertion (path-condition refinement) ---

bool PruneDomain::AssertLt(State* state, ValueId a, ValueId b) {
  if (RelReach(*state, b, a) >= 1) return false;  // b <= a contradicts a < b
  Interval ia = EvalIntAt(*state, a, 0);
  Interval ib = EvalIntAt(*state, b, 0);
  int64_t upper = ib.hi == Interval::kPosInf ? Interval::kPosInf : ib.hi - 1;
  int64_t lower = ia.lo == Interval::kNegInf ? Interval::kNegInf : ia.lo + 1;
  std::optional<Interval> na = Meet(ia, Interval{Interval::kNegInf, upper});
  if (!na) return false;
  std::optional<Interval> nb = Meet(ib, Interval{lower, Interval::kPosInf});
  if (!nb) return false;
  state->facts[a].range = *na;
  state->facts[b].range = *nb;
  state->lt.insert({a, b});
  return true;
}

bool PruneDomain::AssertLe(State* state, ValueId a, ValueId b) {
  if (RelReach(*state, b, a) == 2) return false;  // b < a contradicts a <= b
  Interval ia = EvalIntAt(*state, a, 0);
  Interval ib = EvalIntAt(*state, b, 0);
  std::optional<Interval> na = Meet(ia, Interval{Interval::kNegInf, ib.hi});
  if (!na) return false;
  std::optional<Interval> nb = Meet(ib, Interval{ia.lo, Interval::kPosInf});
  if (!nb) return false;
  state->facts[a].range = *na;
  state->facts[b].range = *nb;
  state->le.insert({a, b});
  return true;
}

bool PruneDomain::AssertIntEq(State* state, ValueId a, ValueId b) {
  if (RelReach(*state, a, b) == 2 || RelReach(*state, b, a) == 2) {
    return false;  // a strict chain either way contradicts equality
  }
  Interval ia = EvalIntAt(*state, a, 0);
  Interval ib = EvalIntAt(*state, b, 0);
  std::optional<Interval> met = Meet(ia, ib);
  if (!met) return false;
  state->facts[a].range = *met;
  state->facts[b].range = *met;
  if (a != b) state->eq.insert(EqPair(a, b));
  return true;
}

bool PruneDomain::AssertIntNe(State* state, ValueId a, ValueId b) {
  if (state->eq.count(EqPair(a, b)) > 0) return false;
  Interval ia = EvalIntAt(*state, a, 0);
  Interval ib = EvalIntAt(*state, b, 0);
  if (ia.IsConst() && ib.IsConst() && ia.lo == ib.lo) return false;
  // Shave a constant off the other side's touching endpoint.
  auto shave = [&](const Interval& c, Interval v) -> std::optional<Interval> {
    if (!c.IsConst()) return v;
    if (v.lo == c.lo && v.lo != Interval::kNegInf) {
      if (v.lo == v.hi) return std::nullopt;
      v.lo += 1;
    }
    if (v.hi == c.lo && v.hi != Interval::kPosInf) {
      if (v.lo == v.hi) return std::nullopt;
      v.hi -= 1;
    }
    return v;
  };
  std::optional<Interval> na = shave(ib, ia);
  if (!na) return false;
  std::optional<Interval> nb = shave(ia, ib);
  if (!nb) return false;
  state->facts[a].range = *na;
  state->facts[b].range = *nb;
  return true;
}

bool PruneDomain::SetNullFact(State* state, ValueId id, bool is_null) {
  Null3 current = EvalNullAt(*state, id, 0);
  Null3 want = is_null ? Null3::kNull : Null3::kNonNull;
  if (current != Null3::kMaybe && current != want) return false;
  state->facts[id].nullness = want;
  return true;
}

bool PruneDomain::AssertCmp(State* state, BinOp op, ValueId a, ValueId b, bool truth) {
  switch (op) {
    case BinOp::kLt:
      return truth ? AssertLt(state, a, b) : AssertLe(state, b, a);
    case BinOp::kLe:
      return truth ? AssertLe(state, a, b) : AssertLt(state, b, a);
    case BinOp::kGt:
      return truth ? AssertLt(state, b, a) : AssertLe(state, a, b);
    case BinOp::kGe:
      return truth ? AssertLe(state, b, a) : AssertLt(state, a, b);
    case BinOp::kEq:
      return truth ? AssertIntEq(state, a, b) : AssertIntNe(state, a, b);
    case BinOp::kNe:
      return truth ? AssertIntNe(state, a, b) : AssertIntEq(state, a, b);
    default:
      return true;
  }
}

bool PruneDomain::AssertAt(State* state, ValueId id, bool truth, int depth) {
  Bool3 current = EvalBoolAt(*state, id, 0);
  if (current != Bool3::kUnknown) {
    return (current == Bool3::kTrue) == truth;
  }
  bool feasible = true;
  const ValueTable::Def& def = values_->def(id);
  if (depth < kMaxEvalDepth && def.kind == ValueTable::Def::Kind::kPure) {
    if (def.op == Opcode::kUnOp && def.un_op == UnOp::kNot) {
      return AssertAt(state, def.args[0], !truth, depth + 1);
    }
    if (def.op == Opcode::kBinOp) {
      ValueId a = def.args[0];
      ValueId b = def.args[1];
      switch (def.bin_op) {
        case BinOp::kAnd:
          if (truth) {
            feasible = AssertAt(state, a, true, depth + 1) &&
                       AssertAt(state, b, true, depth + 1);
          }
          break;
        case BinOp::kOr:
          if (!truth) {
            feasible = AssertAt(state, a, false, depth + 1) &&
                       AssertAt(state, b, false, depth + 1);
          }
          break;
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
        case BinOp::kEq:
        case BinOp::kNe:
          feasible = AssertCmp(state, def.bin_op, a, b, truth);
          break;
        case BinOp::kPtrEq:
        case BinOp::kPtrNe: {
          bool want_eq = (def.bin_op == BinOp::kPtrEq) == truth;
          if (a == b) {
            feasible = want_eq;
          } else if (values_->def(a).kind == ValueTable::Def::Kind::kNull) {
            feasible = SetNullFact(state, b, want_eq);
          } else if (values_->def(b).kind == ValueTable::Def::Kind::kNull) {
            feasible = SetNullFact(state, a, want_eq);
          }
          break;
        }
        case BinOp::kBoolEq:
        case BinOp::kBoolNe: {
          bool want_eq = (def.bin_op == BinOp::kBoolEq) == truth;
          Bool3 va = EvalBoolAt(*state, a, 0);
          Bool3 vb = EvalBoolAt(*state, b, 0);
          if (va != Bool3::kUnknown) {
            feasible = AssertAt(state, b, want_eq == (va == Bool3::kTrue), depth + 1);
          } else if (vb != Bool3::kUnknown) {
            feasible = AssertAt(state, a, want_eq == (vb == Bool3::kTrue), depth + 1);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  if (!feasible) return false;
  AbsFacts& facts = state->facts[id];
  Bool3 want = FromBool(truth);
  if (facts.boolean != Bool3::kUnknown && facts.boolean != want) return false;
  facts.boolean = want;
  return true;
}

bool PruneDomain::Assert(State* state, ValueId id, bool truth) {
  return AssertAt(state, id, truth, 0);
}

// --- transfer & join ---

void PruneDomain::Transfer(const Function& fn, BlockId block, const State& in,
                           std::vector<std::pair<BlockId, State>>* out) {
  State state = ExecuteBody(fn, in, block);
  const Instr& term = fn.instr(fn.block(block).instrs.back());
  switch (term.op) {
    case Opcode::kJmp:
      out->emplace_back(term.target_true, std::move(state));
      break;
    case Opcode::kBr: {
      if (term.target_true == term.target_false) {
        out->emplace_back(term.target_true, std::move(state));
        break;
      }
      ValueId cond = OperandValue(&state, term.operands[0]);
      Bool3 value = EvalBool(state, cond);
      if (value == Bool3::kTrue) {
        out->emplace_back(term.target_true, std::move(state));
      } else if (value == Bool3::kFalse) {
        out->emplace_back(term.target_false, std::move(state));
      } else {
        State taken = state;
        if (Assert(&taken, cond, true)) {
          out->emplace_back(term.target_true, std::move(taken));
        }
        State not_taken = std::move(state);
        if (Assert(&not_taken, cond, false)) {
          out->emplace_back(term.target_false, std::move(not_taken));
        }
      }
      break;
    }
    case Opcode::kRet:
    case Opcode::kPanic:
      break;
    default:
      DNSV_CHECK_MSG(false, "block does not end in a terminator");
  }
}

AbsFacts PruneDomain::FactsOf(const State& state, ValueId id) const {
  AbsFacts facts;
  facts.range = EvalIntAt(state, id, 0);
  facts.boolean = EvalBoolAt(state, id, 0);
  facts.nullness = EvalNullAt(state, id, 0);
  return facts;
}

bool PruneDomain::Join(State* into, const State& incoming, const Function& fn, BlockId at,
                       int visits) {
  (void)fn;
  bool widen = visits >= 3;
  bool changed = false;
  std::set<ValueId> just_joined;
  // Substitution applied by this join: old value -> the join value that now
  // stands for it (identity entries mark a join value that stays current on
  // that side). Relational facts are rewritten through these maps so that
  //   into:  i0 < lenA      incoming:  J < lenA
  // meet as J < lenA instead of being lost to a literal intersection.
  std::map<ValueId, ValueId> remap_into;
  std::map<ValueId, ValueId> remap_inc;

  auto set_fact = [&](ValueId id, const AbsFacts& facts) {
    auto it = into->facts.find(id);
    if (facts.IsTop()) {
      if (it != into->facts.end()) {
        into->facts.erase(it);
        changed = true;
      }
      return;
    }
    if (it == into->facts.end()) {
      into->facts.emplace(id, facts);
      changed = true;
    } else if (!(it->second == facts)) {
      it->second = facts;
      changed = true;
    }
  };

  // A helper shared by the register and memory maps: intersect keys; where
  // the two sides carry different values, merge into a block-keyed join
  // value whose facts are the (possibly widened) join of both sides' facts.
  auto merge_map = [&](auto* target, const auto& incoming_map, char space) {
    for (auto it = target->begin(); it != target->end();) {
      auto inc = incoming_map.find(it->first);
      if (inc == incoming_map.end()) {
        it = target->erase(it);
        changed = true;
        continue;
      }
      if (it->second != inc->second) {
        // The frontend keeps a variable both in a register and in its alloca
        // slot; if this round already joined this exact (into, incoming) value
        // pair for another key, reuse that join value so both views of the
        // variable stay one value — otherwise the relational facts follow one
        // join value while loads read the other.
        ValueId joined_id;
        auto known_into = remap_into.find(it->second);
        auto known_inc = remap_inc.find(inc->second);
        if (known_into != remap_into.end() && known_inc != remap_inc.end() &&
            known_into->second == known_inc->second) {
          joined_id = known_into->second;
        } else {
          joined_id = values_->JoinValue(at, space, static_cast<uint64_t>(it->first));
          remap_into.emplace(it->second, joined_id);
          remap_inc.emplace(inc->second, joined_id);
        }
        AbsFacts prev = FactsOf(*into, it->second);
        AbsFacts incf = FactsOf(incoming, inc->second);
        AbsFacts joined = JoinFacts(prev, incf, widen);
        if (it->second != joined_id) {
          it->second = joined_id;
          changed = true;
        }
        set_fact(joined_id, joined);
        just_joined.insert(joined_id);
      }
      ++it;
    }
  };

  merge_map(&into->regs, incoming.regs, 'r');
  merge_map(&into->mem, incoming.mem, 'm');

  // True for values whose meaning changed under this join: the redefined join
  // values themselves and anything built on top of one. Facts recorded about
  // such a value describe the *previous* iteration's binding (a ghost) and
  // must not survive into the merged state.
  std::map<ValueId, bool> dep_memo;
  std::function<bool(ValueId)> depends = [&](ValueId id) -> bool {
    if (just_joined.count(id)) return true;
    auto m = dep_memo.find(id);
    if (m != dep_memo.end()) return m->second;
    dep_memo[id] = false;
    bool d = false;
    for (ValueId arg : values_->def(id).args) {
      if (depends(arg)) {
        d = true;
        break;
      }
    }
    dep_memo[id] = d;
    return d;
  };

  // Drop ghost facts, then weaken the remaining entries by the incoming
  // side's knowledge. (just_joined entries were freshly set above.)
  for (auto it = into->facts.begin(); it != into->facts.end();) {
    if (!just_joined.count(it->first) && depends(it->first)) {
      it = into->facts.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  std::vector<std::pair<ValueId, AbsFacts>> updates;
  for (const auto& [id, facts] : into->facts) {
    if (just_joined.count(id)) continue;
    AbsFacts incf = FactsOf(incoming, id);
    AbsFacts joined = JoinFacts(facts, incf, widen);
    if (!(joined == facts)) {
      updates.emplace_back(id, joined);
    }
  }
  for (const auto& [id, facts] : updates) {
    set_fact(id, facts);
  }

  // Relational facts: rewrite each side through its substitution (dropping
  // ghosts: an endpoint that depends on a redefined join value without being
  // a substitution key describes the old binding), then keep what both sides
  // know. A pair the substitutions never touched may also survive when the
  // incoming intervals alone prove it.
  using RelSet = std::set<std::pair<ValueId, ValueId>>;
  auto remap_apply = [&](const RelSet& rel, const std::map<ValueId, ValueId>& remap,
                         bool normalize) {
    RelSet out;
    for (const auto& [a, b] : rel) {
      auto ma = remap.find(a);
      auto mb = remap.find(b);
      if (ma == remap.end() && depends(a)) continue;  // ghost endpoint
      if (mb == remap.end() && depends(b)) continue;
      ValueId ra = ma != remap.end() ? ma->second : a;
      ValueId rb = mb != remap.end() ? mb->second : b;
      if (ra == rb) continue;
      out.insert(normalize ? EqPair(ra, rb) : std::make_pair(ra, rb));
    }
    return out;
  };
  auto untouched = [&](ValueId v) {
    return remap_into.count(v) == 0 && remap_inc.count(v) == 0 && !depends(v);
  };
  RelSet lt_inc = remap_apply(incoming.lt, remap_inc, false);
  RelSet le_inc = remap_apply(incoming.le, remap_inc, false);
  RelSet eq_inc = remap_apply(incoming.eq, remap_inc, true);
  // For <= purposes the incoming side's < and == facts count too.
  RelSet le_inc_all = le_inc;
  le_inc_all.insert(lt_inc.begin(), lt_inc.end());
  for (const auto& [a, b] : eq_inc) {
    le_inc_all.insert({a, b});
    le_inc_all.insert({b, a});
  }
  auto meet_rel = [&](RelSet* target, const std::map<ValueId, ValueId>& remap,
                      const RelSet& inc_side, bool normalize, auto provable) {
    RelSet merged;
    for (const auto& pair : remap_apply(*target, remap, normalize)) {
      bool keep = inc_side.count(pair) > 0 ||
                  (untouched(pair.first) && untouched(pair.second) &&
                   provable(EvalIntAt(incoming, pair.first, 0),
                            EvalIntAt(incoming, pair.second, 0)));
      if (keep) merged.insert(pair);
    }
    if (*target != merged) {
      *target = std::move(merged);
      changed = true;
    }
  };
  meet_rel(&into->lt, remap_into, lt_inc, false,
           [](const Interval& a, const Interval& b) { return ProvablyLt(a, b); });
  meet_rel(&into->le, remap_into, le_inc_all, false,
           [](const Interval& a, const Interval& b) { return ProvablyLe(a, b); });
  meet_rel(&into->eq, remap_into, eq_inc, true, [](const Interval& a, const Interval& b) {
    return a.IsConst() && b.IsConst() && a.lo == b.lo;
  });

  return changed;
}

}  // namespace dnsv
