#include "src/sym/executor.h"

#include "src/support/status.h"
#include "src/support/strings.h"

namespace dnsv {

struct SymExecutor::Frame {
  const Function* fn = nullptr;
  // Register r at slot r, parameter p at slot fn->num_instrs() + p. A fork
  // shares every slot with its sibling until one of them writes it.
  CowVector<SymValue> regs;

  size_t Slot(uint32_t reg) const {
    return Function::IsParamReg(reg) ? fn->num_instrs() + Function::ParamIndex(reg) : reg;
  }
};

namespace {

std::vector<PathOutcome> OnePath(PathOutcome outcome) {
  std::vector<PathOutcome> paths;
  paths.push_back(std::move(outcome));
  return paths;
}

}  // namespace

SymExecutor::SymExecutor(const Module* module, TermArena* arena, SolverSession* solver,
                         ExecLimits limits)
    : module_(module), arena_(arena), solver_(solver), limits_(limits) {}

SymValue SymExecutor::EvalOperand(const Frame& frame, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kReg: {
      const SymValue* value = frame.regs.Find(frame.Slot(op.reg));
      DNSV_CHECK_MSG(value != nullptr, "register read before write");
      return *value;
    }
    case Operand::Kind::kIntConst:
      return SymValue::OfTerm(arena_->IntConst(op.imm));
    case Operand::Kind::kBoolConst:
      return SymValue::OfTerm(arena_->BoolConst(op.imm != 0));
    case Operand::Kind::kNull:
      return SymValue::NullPtr();
    case Operand::Kind::kNone:
      break;
  }
  DNSV_CHECK(false);
  return SymValue::Unit();
}

bool SymExecutor::Feasible(Term pc, Term condition) {
  Term conjunct = arena_->And(pc, condition);
  bool constant = false;
  if (arena_->AsBoolConst(conjunct, &constant)) {
    return constant;
  }
  ++stats_.feasibility_checks;
  // kUnknown (solver timeout) is treated as feasible — over-approximating the
  // path set is sound, dropping a feasible path is not.
  return solver_->CheckAssuming(conjunct) != SatResult::kUnsat;
}

std::optional<int64_t> SymExecutor::TryUniqueIndex(Term index, Term pc) {
  int64_t value = 0;
  if (arena_->AsIntConst(index, &value)) {
    return value;
  }
  // The paper's stated assumption (§5.4) is that lists are rarely accessed at
  // a random symbolic index. An index that is *unique* under the path
  // condition concretizes directly; a genuinely symbolic one makes the caller
  // fork one path per feasible value (the paper's concretization technique,
  // §5.1).
  for (int64_t probe = 0; probe < kIndexProbeLimit; ++probe) {
    Term eq = arena_->Eq(index, arena_->IntConst(probe));
    ++stats_.feasibility_checks;
    if (solver_->CheckAssuming(arena_->And(pc, eq)) == SatResult::kSat) {
      Term neq = arena_->Ne(index, arena_->IntConst(probe));
      ++stats_.feasibility_checks;
      if (solver_->CheckAssuming(arena_->And(pc, neq)) == SatResult::kUnsat) {
        return probe;
      }
      return std::nullopt;  // feasible but not unique: fork
    }
  }
  throw DnsvError("symbolic list index outside the probe range");
}

SymValue SymExecutor::EvalBinOp(const Instr& instr, const SymValue& a, const SymValue& b) {
  TermArena& A = *arena_;
  switch (instr.bin_op) {
    case BinOp::kAdd: return SymValue::OfTerm(A.Add(a.term, b.term));
    case BinOp::kSub: return SymValue::OfTerm(A.Sub(a.term, b.term));
    case BinOp::kMul: return SymValue::OfTerm(A.Mul(a.term, b.term));
    case BinOp::kDiv: return SymValue::OfTerm(A.Div(a.term, b.term));
    case BinOp::kMod: return SymValue::OfTerm(A.Mod(a.term, b.term));
    case BinOp::kEq: case BinOp::kBoolEq: return SymValue::OfTerm(A.Eq(a.term, b.term));
    case BinOp::kNe: case BinOp::kBoolNe: return SymValue::OfTerm(A.Ne(a.term, b.term));
    case BinOp::kLt: return SymValue::OfTerm(A.Lt(a.term, b.term));
    case BinOp::kLe: return SymValue::OfTerm(A.Le(a.term, b.term));
    case BinOp::kGt: return SymValue::OfTerm(A.Gt(a.term, b.term));
    case BinOp::kGe: return SymValue::OfTerm(A.Ge(a.term, b.term));
    case BinOp::kAnd: return SymValue::OfTerm(A.And(a.term, b.term));
    case BinOp::kOr: return SymValue::OfTerm(A.Or(a.term, b.term));
    case BinOp::kPtrEq:
      // Pointers are always concrete in this memory model (§5.1: blocks are
      // referenced by concrete block ids; only contents may be symbolic).
      return SymValue::OfTerm(A.BoolConst(a.block == b.block && a.path == b.path));
    case BinOp::kPtrNe:
      return SymValue::OfTerm(A.BoolConst(!(a.block == b.block && a.path == b.path)));
  }
  DNSV_CHECK(false);
  return SymValue::Unit();
}

Term SymExecutor::ListEqTerm(const SymValue& a, const SymValue& b) {
  DNSV_CHECK(a.kind == SymValue::Kind::kList && b.kind == SymValue::Kind::kList);
  TermArena& A = *arena_;
  std::vector<Term> conjuncts = {A.Eq(a.list_len, b.list_len)};
  size_t bound = std::max(a.elems.size(), b.elems.size());
  auto elem = [&](const SymValue& list, size_t i) -> Term {
    if (i < list.elems.size()) {
      DNSV_CHECK(list.elems[i].kind == SymValue::Kind::kTerm);
      return list.elems[i].term;
    }
    // Slot beyond this list's capacity: can only matter in combinations the
    // global length bounds already exclude; a fresh variable keeps it sound.
    return A.Var(StrCat("pad.", havoc_counter_++), Sort::kInt);
  };
  for (size_t i = 0; i < bound; ++i) {
    Term guard = A.Lt(A.IntConst(static_cast<int64_t>(i)), a.list_len);
    conjuncts.push_back(A.Implies(guard, A.Eq(elem(a, i), elem(b, i))));
  }
  return A.AndN(conjuncts);
}

std::vector<PathOutcome> SymExecutor::Explore(const Function& fn,
                                              const std::vector<SymValue>& args,
                                              SymState state) {
  if (!state.pc.valid()) {
    state.pc = arena_->True();
  }
  return ExecFunction(fn, args, std::move(state), 0);
}

std::vector<PathOutcome> SymExecutor::ExecFunction(const Function& fn,
                                                   const std::vector<SymValue>& args,
                                                   SymState state, int depth) {
  if (depth > limits_.max_call_depth) {
    throw DnsvError("symbolic execution call depth limit exceeded");
  }
  DNSV_CHECK(args.size() == fn.params().size());
  Frame frame;
  frame.fn = &fn;
  frame.regs.Resize(fn.num_instrs() + args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    frame.regs.Set(fn.num_instrs() + i, args[i]);
  }
  return ExecFrom(fn, std::move(frame), std::move(state), fn.entry(), 0, depth);
}

std::vector<PathOutcome> SymExecutor::ExecFrom(const Function& fn, Frame frame, SymState state,
                                               BlockId block_id, size_t index, int depth) {
  while (true) {
    const BasicBlock& block = fn.block(block_id);
    for (; index < block.instrs.size(); ++index) {
      if (++stats_.instrs > limits_.max_instrs) {
        throw DnsvError("symbolic execution instruction limit exceeded");
      }
      uint32_t reg = block.instrs[index];
      const Instr& instr = fn.instr(reg);
      auto operand = [&](size_t k) { return EvalOperand(frame, instr.operands[k]); };
      // Case-split on a symbolic index: one continuation per feasible value,
      // re-executing the current instruction with the value pinned (§5.1's
      // concretization).
      auto fork_on_index = [&](Term idx) -> std::vector<PathOutcome> {
        ++stats_.forks;
        Term out_of_probe = arena_->Or(arena_->Lt(idx, arena_->IntConst(0)),
                                       arena_->Ge(idx, arena_->IntConst(kIndexProbeLimit)));
        if (Feasible(state.pc, out_of_probe)) {
          throw DnsvError("symbolic index may fall outside the probe range");
        }
        std::vector<PathOutcome> results;
        for (int64_t v = 0; v < kIndexProbeLimit; ++v) {
          Term pin = arena_->Eq(idx, arena_->IntConst(v));
          if (!Feasible(state.pc, pin)) {
            continue;
          }
          Frame pinned_frame = frame;
          SymState pinned_state = state;
          pinned_state.pc = arena_->And(state.pc, pin);
          std::vector<PathOutcome> tails = ExecFrom(fn, std::move(pinned_frame),
                                                    std::move(pinned_state), block_id, index,
                                                    depth);
          for (PathOutcome& tail : tails) {
            results.push_back(std::move(tail));
          }
        }
        return results;
      };
      switch (instr.op) {
        case Opcode::kBinOp:
          frame.regs.Set(reg, EvalBinOp(instr, operand(0), operand(1)));
          break;
        case Opcode::kUnOp: {
          SymValue a = operand(0);
          frame.regs.Set(reg, instr.un_op == UnOp::kNot
                                  ? SymValue::OfTerm(arena_->Not(a.term))
                                  : SymValue::OfTerm(arena_->Sub(arena_->IntConst(0), a.term)));
          break;
        }
        case Opcode::kAlloca:
        case Opcode::kNewObject: {
          BlockIndex b = state.memory.Alloc(
              SymZeroValue(module_->types(), instr.alloc_type, arena_));
          frame.regs.Set(reg, SymValue::Ptr(b));
          break;
        }
        case Opcode::kLoad: {
          SymValue ptr = operand(0);
          if (ptr.IsNullPtr()) {
            PathOutcome outcome;
            outcome.kind = PathOutcome::Kind::kPanicked;
            outcome.panic_message = "nil pointer dereference";
            outcome.state = std::move(state);
            ++stats_.paths;
            return OnePath(std::move(outcome));
          }
          const SymValue* target = state.memory.Resolve(ptr.block, ptr.path);
          if (target == nullptr) {
            const SymValue* root = state.memory.Resolve(ptr.block, {});
            DNSV_CHECK_MSG(false,
                           StrCat("symbolic load does not resolve: fn=", fn.name(), " ",
                                  ptr.ToString(*arena_), " mem=", state.memory.num_blocks(),
                                  " root=", root ? root->ToString(*arena_) : "<none>"));
          }
          frame.regs.Set(reg, *target);
          break;
        }
        case Opcode::kStore: {
          SymValue ptr = operand(0);
          if (ptr.IsNullPtr()) {
            PathOutcome outcome;
            outcome.kind = PathOutcome::Kind::kPanicked;
            outcome.panic_message = "nil pointer dereference";
            outcome.state = std::move(state);
            ++stats_.paths;
            return OnePath(std::move(outcome));
          }
          bool stored = state.memory.Store(ptr.block, ptr.path, operand(1));
          DNSV_CHECK_MSG(stored,
                         StrCat("symbolic store does not resolve: fn=", fn.name(), " ",
                                ptr.ToString(*arena_), " mem=", state.memory.num_blocks()));
          break;
        }
        case Opcode::kGep: {
          SymValue result = operand(0);
          DNSV_CHECK(result.kind == SymValue::Kind::kPtr);
          bool forked = false;
          for (size_t k = 1; k < instr.operands.size() && !forked; ++k) {
            SymValue idx = operand(k);
            std::optional<int64_t> unique = TryUniqueIndex(idx.term, state.pc);
            if (!unique.has_value()) {
              forked = true;
              break;
            }
            result.path.push_back(*unique);
          }
          if (forked) {
            // Re-dispatch with the (first symbolic) index pinned per value.
            for (size_t k = 1; k < instr.operands.size(); ++k) {
              SymValue idx = operand(k);
              if (!TryUniqueIndex(idx.term, state.pc).has_value()) {
                return fork_on_index(idx.term);
              }
            }
          }
          frame.regs.Set(reg, std::move(result));
          break;
        }
        case Opcode::kCall: {
          std::vector<SymValue> call_args;
          call_args.reserve(instr.operands.size());
          for (size_t k = 0; k < instr.operands.size(); ++k) {
            call_args.push_back(operand(k));
          }
          if (instr.text == "listEq") {
            frame.regs.Set(reg, SymValue::OfTerm(ListEqTerm(call_args[0], call_args[1])));
            break;
          }
          std::vector<PathOutcome> sub_outcomes;
          bool applied = false;
          if (summaries_ != nullptr) {
            auto applications = summaries_->TryApply(instr.text, call_args, state);
            if (applications.has_value()) {
              applied = true;
              ++stats_.summary_applications;
              for (SummaryProvider::Application& app : *applications) {
                PathOutcome outcome;
                outcome.kind = app.panics ? PathOutcome::Kind::kPanicked
                                          : PathOutcome::Kind::kReturned;
                outcome.panic_message = std::move(app.panic_message);
                outcome.state = std::move(app.state);
                outcome.return_value = std::move(app.return_value);
                sub_outcomes.push_back(std::move(outcome));
              }
            }
          }
          if (!applied) {
            const Function* callee = module_->GetFunction(instr.text);
            DNSV_CHECK_MSG(callee != nullptr, "call to unknown function " + instr.text);
            sub_outcomes = ExecFunction(*callee, call_args, std::move(state), depth + 1);
          }
          // Continue this frame once per successful callee path; propagate
          // panics unchanged.
          std::vector<PathOutcome> results;
          for (size_t k = 0; k < sub_outcomes.size(); ++k) {
            PathOutcome& sub = sub_outcomes[k];
            if (sub.kind == PathOutcome::Kind::kPanicked) {
              results.push_back(std::move(sub));
              continue;
            }
            Frame continued_frame = frame;  // shares registers until written
            continued_frame.regs.Set(reg, std::move(sub.return_value));
            std::vector<PathOutcome> tails = ExecFrom(
                fn, std::move(continued_frame), std::move(sub.state), block_id, index + 1,
                depth);
            for (PathOutcome& tail : tails) {
              results.push_back(std::move(tail));
            }
          }
          return results;
        }
        case Opcode::kListNew:
          frame.regs.Set(reg, SymValue::List({}, arena_));
          break;
        case Opcode::kListLen:
          frame.regs.Set(reg, SymValue::OfTerm(operand(0).list_len));
          break;
        case Opcode::kListGet: {
          SymValue list = operand(0);
          std::optional<int64_t> unique = TryUniqueIndex(operand(1).term, state.pc);
          if (!unique.has_value()) {
            return fork_on_index(operand(1).term);
          }
          int64_t idx = *unique;
          DNSV_CHECK_MSG(idx >= 0 && static_cast<size_t>(idx) < list.elems.size(),
                         StrCat("list read at ", idx, " beyond capacity ", list.elems.size(),
                                " (missing bounds check?)"));
          frame.regs.Set(reg, list.elems[static_cast<size_t>(idx)]);
          break;
        }
        case Opcode::kListSet: {
          SymValue list = operand(0);
          std::optional<int64_t> unique = TryUniqueIndex(operand(1).term, state.pc);
          if (!unique.has_value()) {
            return fork_on_index(operand(1).term);
          }
          int64_t idx = *unique;
          DNSV_CHECK(idx >= 0 && static_cast<size_t>(idx) < list.elems.size());
          *list.elems.Mutable(static_cast<size_t>(idx)) = operand(2);
          frame.regs.Set(reg, std::move(list));
          break;
        }
        case Opcode::kListAppend: {
          SymValue list = operand(0);
          int64_t concrete_len = 0;
          bool len_concrete = arena_->AsIntConst(list.list_len, &concrete_len);
          if (!len_concrete) {
            throw DnsvError(
                "append to a symbolic-length list (outside the supported effect patterns)");
          }
          list.elems.PushBack(operand(1));
          list.list_len = arena_->Add(list.list_len, arena_->IntConst(1));
          frame.regs.Set(reg, std::move(list));
          break;
        }
        case Opcode::kFieldGet: {
          SymValue aggregate = operand(0);
          DNSV_CHECK(aggregate.kind == SymValue::Kind::kStruct);
          frame.regs.Set(reg, aggregate.elems[static_cast<size_t>(instr.field_index)]);
          break;
        }
        case Opcode::kHavoc: {
          Sort sort = instr.result_type == module_->types().BoolType() ? Sort::kBool : Sort::kInt;
          frame.regs.Set(reg,
                         SymValue::OfTerm(arena_->Var(StrCat("havoc.", havoc_counter_++), sort)));
          break;
        }
        case Opcode::kBr: {
          Term cond = operand(0).term;
          bool constant = false;
          if (arena_->AsBoolConst(cond, &constant)) {
            block_id = constant ? instr.target_true : instr.target_false;
            index = 0;
            goto next_block;
          }
          bool true_feasible = Feasible(state.pc, cond);
          bool false_feasible = Feasible(state.pc, arena_->Not(cond));
          if (true_feasible && !false_feasible) {
            state.pc = arena_->And(state.pc, cond);
            block_id = instr.target_true;
            index = 0;
            goto next_block;
          }
          if (!true_feasible && false_feasible) {
            state.pc = arena_->And(state.pc, arena_->Not(cond));
            block_id = instr.target_false;
            index = 0;
            goto next_block;
          }
          if (!true_feasible && !false_feasible) {
            // The path condition itself became unsatisfiable (can happen when
            // a caller applies a summary entry optimistically): dead path.
            return {};
          }
          ++stats_.forks;
          std::vector<PathOutcome> results;
          {
            Frame true_frame = frame;
            SymState true_state = state;
            true_state.pc = arena_->And(state.pc, cond);
            std::vector<PathOutcome> tails =
                ExecFrom(fn, std::move(true_frame), std::move(true_state), instr.target_true,
                         0, depth);
            for (PathOutcome& tail : tails) {
              results.push_back(std::move(tail));
            }
          }
          {
            state.pc = arena_->And(state.pc, arena_->Not(cond));
            std::vector<PathOutcome> tails = ExecFrom(
                fn, std::move(frame), std::move(state), instr.target_false, 0, depth);
            for (PathOutcome& tail : tails) {
              results.push_back(std::move(tail));
            }
          }
          if (static_cast<int64_t>(results.size()) > limits_.max_paths) {
            throw DnsvError("symbolic execution path limit exceeded");
          }
          return results;
        }
        case Opcode::kJmp:
          block_id = instr.target_true;
          index = 0;
          goto next_block;
        case Opcode::kRet: {
          PathOutcome outcome;
          outcome.kind = PathOutcome::Kind::kReturned;
          if (!instr.operands.empty()) {
            outcome.return_value = operand(0);
          }
          outcome.state = std::move(state);
          ++stats_.paths;
          return OnePath(std::move(outcome));
        }
        case Opcode::kPanic: {
          PathOutcome outcome;
          outcome.kind = PathOutcome::Kind::kPanicked;
          outcome.panic_message = instr.text;
          outcome.state = std::move(state);
          ++stats_.paths;
          return OnePath(std::move(outcome));
        }
      }
    }
    DNSV_CHECK_MSG(false, "block fell through without terminator");
  next_block:;
  }
}

}  // namespace dnsv
