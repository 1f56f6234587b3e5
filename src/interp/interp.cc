#include "src/interp/interp.h"

#include <unordered_map>

#include "src/support/strings.h"

namespace dnsv {

struct Interpreter::Frame {
  const Function* fn;
  std::vector<Value> args;
  std::unordered_map<uint32_t, Value> regs;
};

const Value& Interpreter::RegValue(const Frame& frame, const Operand& op) {
  DNSV_CHECK(op.kind == Operand::Kind::kReg);
  if (Function::IsParamReg(op.reg)) {
    return frame.args[Function::ParamIndex(op.reg)];
  }
  auto it = frame.regs.find(op.reg);
  DNSV_CHECK_MSG(it != frame.regs.end(), "register read before write");
  return it->second;
}

Value Interpreter::EvalOperand(const Frame& frame, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      return RegValue(frame, op);
    case Operand::Kind::kIntConst:
      return Value::Int(op.imm);
    case Operand::Kind::kBoolConst:
      return Value::Bool(op.imm != 0);
    case Operand::Kind::kNull:
      return Value::NullPtr();
    case Operand::Kind::kNone:
      break;
  }
  DNSV_CHECK(false);
  return Value::Unit();
}

ExecOutcome Interpreter::Run(const Function& function, const std::vector<Value>& args,
                             int64_t max_steps) {
  int64_t steps = 0;
  ExecOutcome outcome = RunFrame(function, args, 0, &steps, max_steps);
  outcome.steps = steps;
  return outcome;
}

ExecOutcome Interpreter::RunFrame(const Function& function, std::vector<Value> args, int depth,
                                  int64_t* steps, int64_t max_steps) {
  auto panic = [&](const std::string& message) {
    ExecOutcome outcome;
    outcome.kind = ExecOutcome::Kind::kPanicked;
    outcome.panic_message = message;
    return outcome;
  };
  if (depth > kMaxCallDepth) {
    return panic("call depth limit exceeded");
  }
  DNSV_CHECK(args.size() == function.params().size());
  Frame frame;
  frame.fn = &function;
  frame.args = std::move(args);

  const TypeTable& types = module_->types();
  BlockId current = function.entry();
  while (true) {
    const BasicBlock& block = function.block(current);
    for (uint32_t index : block.instrs) {
      if (++(*steps) > max_steps) {
        ExecOutcome outcome;
        outcome.kind = ExecOutcome::Kind::kStepLimit;
        return outcome;
      }
      const Instr& instr = function.instr(index);
      auto operand = [&](size_t k) { return EvalOperand(frame, instr.operands[k]); };
      switch (instr.op) {
        case Opcode::kBinOp: {
          Value a = operand(0);
          Value b = operand(1);
          Value result;
          switch (instr.bin_op) {
            case BinOp::kAdd: result = Value::Int(a.i + b.i); break;
            case BinOp::kSub: result = Value::Int(a.i - b.i); break;
            case BinOp::kMul: result = Value::Int(a.i * b.i); break;
            case BinOp::kDiv:
              // Division by zero is guarded by frontend panic blocks; a zero
              // here means hand-written IR skipped the check.
              if (b.i == 0) return panic("integer divide by zero");
              result = Value::Int(a.i / b.i);
              break;
            case BinOp::kMod:
              if (b.i == 0) return panic("integer divide by zero");
              result = Value::Int(a.i % b.i);
              break;
            case BinOp::kEq: result = Value::Bool(a.i == b.i); break;
            case BinOp::kNe: result = Value::Bool(a.i != b.i); break;
            case BinOp::kLt: result = Value::Bool(a.i < b.i); break;
            case BinOp::kLe: result = Value::Bool(a.i <= b.i); break;
            case BinOp::kGt: result = Value::Bool(a.i > b.i); break;
            case BinOp::kGe: result = Value::Bool(a.i >= b.i); break;
            case BinOp::kAnd: result = Value::Bool(a.i != 0 && b.i != 0); break;
            case BinOp::kOr: result = Value::Bool(a.i != 0 || b.i != 0); break;
            case BinOp::kBoolEq: result = Value::Bool(a.i == b.i); break;
            case BinOp::kBoolNe: result = Value::Bool(a.i != b.i); break;
            case BinOp::kPtrEq:
              result = Value::Bool(a.block == b.block && a.path == b.path);
              break;
            case BinOp::kPtrNe:
              result = Value::Bool(!(a.block == b.block && a.path == b.path));
              break;
          }
          frame.regs[index] = std::move(result);
          break;
        }
        case Opcode::kUnOp: {
          Value a = operand(0);
          frame.regs[index] =
              instr.un_op == UnOp::kNot ? Value::Bool(a.i == 0) : Value::Int(-a.i);
          break;
        }
        case Opcode::kAlloca:
        case Opcode::kNewObject: {
          BlockIndex b = memory_->Alloc(ZeroValueOf(types, instr.alloc_type));
          frame.regs[index] = Value::Ptr(b);
          break;
        }
        case Opcode::kLoad: {
          Value ptr = operand(0);
          if (ptr.IsNullPtr()) {
            return panic("nil pointer dereference");
          }
          Value* target = memory_->Resolve(ptr.block, ptr.path);
          if (target == nullptr) {
            return panic("invalid memory access");
          }
          frame.regs[index] = *target;
          break;
        }
        case Opcode::kStore: {
          Value ptr = operand(0);
          if (ptr.IsNullPtr()) {
            return panic("nil pointer dereference");
          }
          Value* target = memory_->Resolve(ptr.block, ptr.path);
          if (target == nullptr) {
            return panic("invalid memory access");
          }
          *target = operand(1);
          break;
        }
        case Opcode::kGep: {
          Value ptr = operand(0);
          if (ptr.IsNullPtr()) {
            return panic("nil pointer dereference");
          }
          Value result = ptr;
          for (size_t k = 1; k < instr.operands.size(); ++k) {
            result.path.push_back(operand(k).i);
          }
          frame.regs[index] = std::move(result);
          break;
        }
        case Opcode::kCall: {
          std::vector<Value> call_args;
          call_args.reserve(instr.operands.size());
          for (size_t k = 0; k < instr.operands.size(); ++k) {
            call_args.push_back(operand(k));
          }
          if (instr.text == "listEq") {
            DNSV_CHECK(call_args.size() == 2);
            frame.regs[index] = Value::Bool(call_args[0].elems == call_args[1].elems);
            break;
          }
          const Function* callee = module_->GetFunction(instr.text);
          DNSV_CHECK_MSG(callee != nullptr, "call to unknown function " + instr.text);
          ExecOutcome sub =
              RunFrame(*callee, std::move(call_args), depth + 1, steps, max_steps);
          if (!sub.ok()) {
            return sub;
          }
          frame.regs[index] = std::move(sub.return_value);
          break;
        }
        case Opcode::kListNew:
          frame.regs[index] = Value::List();
          break;
        case Opcode::kListLen:
          frame.regs[index] =
              Value::Int(static_cast<int64_t>(RegValue(frame, instr.operands[0]).elems.size()));
          break;
        case Opcode::kListGet: {
          const Value& list = RegValue(frame, instr.operands[0]);
          int64_t i = operand(1).i;
          if (i < 0 || static_cast<size_t>(i) >= list.elems.size()) {
            return panic("index out of range");
          }
          frame.regs[index] = list.elems[static_cast<size_t>(i)];
          break;
        }
        case Opcode::kListSet: {
          Value list = operand(0);
          int64_t i = operand(1).i;
          if (i < 0 || static_cast<size_t>(i) >= list.elems.size()) {
            return panic("index out of range");
          }
          list.elems[static_cast<size_t>(i)] = operand(2);
          frame.regs[index] = std::move(list);
          break;
        }
        case Opcode::kListAppend: {
          Value list = operand(0);
          list.elems.push_back(operand(1));
          frame.regs[index] = std::move(list);
          break;
        }
        case Opcode::kFieldGet: {
          const Value& aggregate = RegValue(frame, instr.operands[0]);
          DNSV_CHECK(aggregate.kind == Value::Kind::kStruct);
          DNSV_CHECK(instr.field_index >= 0 &&
                     static_cast<size_t>(instr.field_index) < aggregate.elems.size());
          frame.regs[index] = aggregate.elems[static_cast<size_t>(instr.field_index)];
          break;
        }
        case Opcode::kHavoc:
          // Concretely, havoc is the zero value (documented spec-dialect
          // behavior; symbolic execution introduces a fresh variable).
          frame.regs[index] = ZeroValueOf(types, instr.result_type);
          break;
        case Opcode::kBr: {
          Value cond = operand(0);
          current = cond.i != 0 ? instr.target_true : instr.target_false;
          break;
        }
        case Opcode::kJmp:
          current = instr.target_true;
          break;
        case Opcode::kRet: {
          ExecOutcome outcome;
          outcome.kind = ExecOutcome::Kind::kReturned;
          if (!instr.operands.empty()) {
            outcome.return_value = operand(0);
          }
          return outcome;
        }
        case Opcode::kPanic:
          return panic(instr.text);
      }
      if (instr.op == Opcode::kBr || instr.op == Opcode::kJmp) {
        break;  // control transferred
      }
    }
  }
}

}  // namespace dnsv
