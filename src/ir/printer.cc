#include "src/ir/printer.h"

#include "src/support/strings.h"

namespace dnsv {
namespace {

std::string OperandString(const Function& fn, const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kNone:
      return "<none>";
    case Operand::Kind::kReg:
      if (Function::IsParamReg(op.reg)) {
        return "%" + fn.params()[Function::ParamIndex(op.reg)].name;
      }
      return StrCat("%", op.reg);
    case Operand::Kind::kIntConst:
      return StrCat(op.imm);
    case Operand::Kind::kBoolConst:
      return op.imm != 0 ? "true" : "false";
    case Operand::Kind::kNull:
      return "null";
  }
  return "<?>";
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
    case BinOp::kMod: return "mod";
    case BinOp::kEq: return "eq";
    case BinOp::kNe: return "ne";
    case BinOp::kLt: return "lt";
    case BinOp::kLe: return "le";
    case BinOp::kGt: return "gt";
    case BinOp::kGe: return "ge";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kPtrEq: return "ptreq";
    case BinOp::kPtrNe: return "ptrne";
    case BinOp::kBoolEq: return "booleq";
    case BinOp::kBoolNe: return "boolne";
  }
  return "?";
}

std::string InstrString(const Module& module, const Function& fn, uint32_t index) {
  const Instr& instr = fn.instr(index);
  const TypeTable& types = module.types();
  auto op_str = [&](size_t i) { return OperandString(fn, instr.operands[i]); };
  auto def = [&](const std::string& rhs) { return StrCat("  %", index, " = ", rhs); };
  switch (instr.op) {
    case Opcode::kBinOp:
      return def(StrCat(BinOpName(instr.bin_op), " ", op_str(0), ", ", op_str(1)));
    case Opcode::kUnOp:
      return def(StrCat(instr.un_op == UnOp::kNot ? "not " : "neg ", op_str(0)));
    case Opcode::kAlloca:
      return def(StrCat("alloca ", types.ToString(instr.alloc_type)));
    case Opcode::kNewObject:
      return def(StrCat("newobject ", types.ToString(instr.alloc_type)));
    case Opcode::kLoad:
      return def(StrCat("load ", op_str(0)));
    case Opcode::kStore:
      return StrCat("  store ", op_str(0), ", ", op_str(1));
    case Opcode::kGep: {
      std::string rhs = StrCat("gep ", op_str(0));
      for (size_t i = 1; i < instr.operands.size(); ++i) {
        rhs += ", " + op_str(i);
      }
      return def(rhs);
    }
    case Opcode::kCall: {
      std::string rhs = StrCat("call ", instr.text, "(");
      for (size_t i = 0; i < instr.operands.size(); ++i) {
        if (i > 0) rhs += ", ";
        rhs += op_str(i);
      }
      rhs += ")";
      return def(rhs);
    }
    case Opcode::kListNew:
      return def(StrCat("listnew ", types.ToString(instr.alloc_type)));
    case Opcode::kListLen:
      return def(StrCat("listlen ", op_str(0)));
    case Opcode::kListGet:
      return def(StrCat("listget ", op_str(0), ", ", op_str(1)));
    case Opcode::kListSet:
      return def(StrCat("listset ", op_str(0), ", ", op_str(1), ", ", op_str(2)));
    case Opcode::kListAppend:
      return def(StrCat("listappend ", op_str(0), ", ", op_str(1)));
    case Opcode::kFieldGet:
      return def(StrCat("fieldget ", op_str(0), ", ", instr.field_index));
    case Opcode::kHavoc:
      return def(StrCat("havoc ", types.ToString(instr.result_type)));
    case Opcode::kBr:
      return StrCat("  br ", op_str(0), ", bb", instr.target_true, ", bb", instr.target_false);
    case Opcode::kJmp:
      return StrCat("  jmp bb", instr.target_true);
    case Opcode::kRet:
      return instr.operands.empty() ? "  ret" : StrCat("  ret ", op_str(0));
    case Opcode::kPanic:
      return StrCat("  panic \"", instr.text, "\"");
  }
  return "  <?>";
}

}  // namespace

std::string PrintFunction(const Module& module, const Function& function) {
  const TypeTable& types = module.types();
  std::string out = StrCat("func ", function.name(), "(");
  for (size_t i = 0; i < function.params().size(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat(function.params()[i].name, " ", types.ToString(function.params()[i].type));
  }
  out += StrCat(") ", types.ToString(function.return_type()), " {\n");
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    const BasicBlock& block = function.block(b);
    out += StrCat("bb", b, ":  ; ", block.label, block.is_panic_block ? " [panic]" : "", "\n");
    for (uint32_t instr : block.instrs) {
      out += InstrString(module, function, instr) + "\n";
    }
  }
  out += "}\n";
  return out;
}

std::string PrintModule(const Module& module) {
  std::string out;
  for (const auto& fn : module.functions()) {
    out += PrintFunction(module, *fn) + "\n";
  }
  return out;
}

uint64_t ModuleFingerprint(const Module& module) {
  // FNV-1a over the printed form: the printer spells out every instruction,
  // operand, and type, so two modules hash equal iff they print identically.
  return Fnv1a64(PrintModule(module));
}

uint64_t FunctionFingerprint(const Module& module, const Function& function) {
  return Fnv1a64(PrintFunction(module, function));
}

uint64_t TypeTableFingerprint(const TypeTable& types) {
  std::string out;
  for (const StructDef* def : types.Structs()) {
    out += StrCat("struct ", def->name, " {");
    for (const StructField& field : def->fields) {
      out += StrCat(" ", field.name, " ", types.ToString(field.type), ";");
    }
    out += " }\n";
  }
  return Fnv1a64(out);
}

}  // namespace dnsv
