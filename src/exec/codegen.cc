#include "src/exec/codegen.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/analysis/alias.h"
#include "src/analysis/callgraph.h"
#include "src/analysis/escape.h"
#include "src/analysis/summary.h"
#include "src/support/logging.h"
#include "src/support/strings.h"

namespace dnsv {
namespace {

// C++ enumerator spelling of an EngineVersion, for the generated GenModule.
const char* VersionEnumerator(EngineVersion version) {
  switch (version) {
    case EngineVersion::kV1: return "EngineVersion::kV1";
    case EngineVersion::kV2: return "EngineVersion::kV2";
    case EngineVersion::kV3: return "EngineVersion::kV3";
    case EngineVersion::kDev: return "EngineVersion::kDev";
    case EngineVersion::kGolden: return "EngineVersion::kGolden";
    case EngineVersion::kV4: return "EngineVersion::kV4";
    case EngineVersion::kV5: return "EngineVersion::kV5";
  }
  DNSV_CHECK(false);
  return "?";
}

// Escapes arbitrary text into a C++ string literal. Octal escapes are always
// three digits so they cannot swallow a following literal digit.
std::string CppStringLiteral(const std::string& text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\%03o", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += "\"";
  return out;
}

std::string IntLiteral(int64_t v) {
  // INT64_MIN has no representable positive literal; spell it as an
  // expression.
  if (v == INT64_MIN) {
    return "(-9223372036854775807LL - 1)";
  }
  return StrCat(v, "LL");
}

// Maps AbsIR function names to unique C++ identifiers (fn_resolve, ...).
class SymbolTable {
 public:
  explicit SymbolTable(const Module& module) {
    std::set<std::string> used;
    for (const auto& fn : module.functions()) {
      std::string sym = "fn_";
      for (char c : fn->name()) {
        sym += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
      }
      while (used.count(sym) != 0) {
        sym += '_';
      }
      used.insert(sym);
      by_name_.emplace(fn->name(), sym);
    }
  }

  const std::string& Symbol(const std::string& fn_name) const {
    auto it = by_name_.find(fn_name);
    DNSV_CHECK_MSG(it != by_name_.end(), "codegen: call to unknown function " + fn_name);
    return it->second;
  }

 private:
  std::unordered_map<std::string, std::string> by_name_;
};

// The Go zero value of `type` as a C++ expression (mirrors ZeroValueOf,
// unrolled at codegen time — struct shapes are static, so no runtime type
// walk is needed).
std::string ZeroExpr(const TypeTable& types, Type type) {
  switch (types.kind(type)) {
    case TypeKind::kInt:
      return "Value::Int(0)";
    case TypeKind::kBool:
      return "Value::Bool(false)";
    case TypeKind::kPtr:
      return "Value::NullPtr()";
    case TypeKind::kList:
      return "Value::List()";
    case TypeKind::kStruct: {
      const StructDef& def = types.GetStruct(type);
      std::string out = "Value::Struct(std::vector<Value>{";
      for (size_t i = 0; i < def.fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += ZeroExpr(types, def.fields[i].type);
      }
      return out + "})";
    }
    case TypeKind::kVoid:
      return "Value::Unit()";
  }
  DNSV_CHECK(false);
  return "Value::Unit()";
}

bool IsScalarType(const TypeTable& types, Type type) {
  TypeKind kind = types.kind(type);
  return kind == TypeKind::kInt || kind == TypeKind::kBool;
}

// The longest index path a well-typed pointer into this module's memory can
// carry: the deepest chain of struct-field / list-element steps inside one
// value of any type the module mentions. A path never crosses a pointer, so
// pointers end a chain. Returns 0 when some struct holds itself by value
// (through a list), which leaves paths unbounded; the emitter then keeps
// every gep result a Value.
size_t MaxPathDepth(const Module& module) {
  const TypeTable& types = module.types();
  std::vector<Type> worklist;
  std::unordered_set<uint32_t> seen;
  auto add = [&](Type t) {
    if (t.valid() && seen.insert(t.id()).second) {
      worklist.push_back(t);
    }
  };
  for (const auto& fn : module.functions()) {
    add(fn->return_type());
    for (const Param& param : fn->params()) {
      add(param.type);
    }
    for (uint32_t i = 0; i < fn->num_instrs(); ++i) {
      const Instr& instr = fn->instr(i);
      add(instr.result_type);
      add(instr.alloc_type);
      for (const Operand& op : instr.operands) {
        add(op.type);
      }
    }
  }
  for (size_t w = 0; w < worklist.size(); ++w) {  // close over component types
    Type t = worklist[w];
    switch (types.kind(t)) {
      case TypeKind::kPtr: add(types.Pointee(t)); break;
      case TypeKind::kList: add(types.ListElement(t)); break;
      case TypeKind::kStruct:
        if (types.IsStructDefined(types.node(t).struct_name)) {
          for (const StructField& field : types.GetStruct(t).fields) {
            add(field.type);
          }
        }
        break;
      default: break;
    }
  }
  constexpr int kUnbounded = -1;
  std::unordered_map<uint32_t, int> memo;  // kUnbounded while on the DFS stack
  std::function<int(Type)> depth = [&](Type t) -> int {
    switch (types.kind(t)) {
      case TypeKind::kList: {
        int inner = depth(types.ListElement(t));
        return inner == kUnbounded ? kUnbounded : inner + 1;
      }
      case TypeKind::kStruct: {
        auto it = memo.find(t.id());
        if (it != memo.end()) {
          return it->second;
        }
        memo[t.id()] = kUnbounded;
        int deepest = 0;
        if (types.IsStructDefined(types.node(t).struct_name)) {
          for (const StructField& field : types.GetStruct(t).fields) {
            int inner = depth(field.type);
            if (inner == kUnbounded) {
              return kUnbounded;
            }
            deepest = std::max(deepest, inner);
          }
        }
        memo[t.id()] = deepest + 1;
        return deepest + 1;
      }
      default:
        return 0;
    }
  };
  int deepest = 0;
  for (Type t : worklist) {
    int d = depth(t);
    if (d == kUnbounded) {
      return 0;
    }
    deepest = std::max(deepest, d);
  }
  return static_cast<size_t>(std::max(deepest, 1));
}

// Emits the body of one AbsIR function as goto-threaded C++. The lowering is
// a statement-for-statement transliteration of Interpreter::RunFrame; any
// behavioral difference between the two is a bug the backend differential
// (src/fuzz) is designed to catch.
//
// Eleven wire-behavior-preserving optimizations make the generated code much
// faster than re-tracing the interpreter's exact memory traffic
// (docs/BACKEND.md §performance):
//
//   * Alloca promotion (mem2reg): a kAlloca whose pointer is used ONLY as
//     the direct address of kLoad/kStore never escapes, so its cell lives in
//     a C++ local (`aN`) instead of ConcreteMemory. No Alloc, no Resolve, no
//     null checks — and none of those checks could ever fire on such a cell
//     (a fresh block with an empty path always resolves), so no panic is
//     lost. The interpreter still heap-allocates these cells, which is why
//     the compiled backend's heap grows slower; block NUMBERING also
//     diverges, but block ids never reach wire output and kPtrEq only needs
//     distinctness, which renumbering preserves.
//   * Load forwarding: a single-use load from a promoted slot is not
//     emitted; its consumer reads the slot in place instead of a deep copy.
//     The consumer must follow the load in the same block or in a chain of
//     blocks each entered only from the previous one — by an unconditional
//     jump, or by a branch whose other target is a block that only panics —
//     so every execution of the consumer is preceded by the load with
//     nothing else in between (an execution that takes the panic edge ends
//     the frame and never reads the copy). Only a store to the slot (or an
//     in-place append/set fused onto it) changes a promoted cell — its
//     address never escapes the frame — so when neither sits on that chain,
//     the slot read at the consumer equals the value the interpreter copied.
//   * Append/set fusion: the load/kListAppend/kStore (and kListSet) triple
//     the frontend emits for `xs = append(xs, v)` mutates the promoted slot
//     in place — O(1) instead of copying the list twice per append. Fusion
//     is skipped when another operand reads the same slot, which keeps the
//     copy-then-mutate order observable in that (self-referential) case.
//   * Pointer projection: a single-use kLoad/kFieldGet/kListGet whose one
//     consumer is the immediately-following kFieldGet/kListGet/kListLen
//     produces a `const Value*` into the cell (or into a live local) instead
//     of deep-copying a whole struct/list just to extract one member. All
//     null/resolve/bounds checks stay at their original program points, and
//     nothing between the pointer's birth and its only use can allocate or
//     mutate, so the pointer cannot dangle and the values read are the ones
//     the interpreter's copies would have held.
//   * Last-use moves: an operand register whose single use the forwarding
//     walk reaches from its single def is dead after that use (every
//     execution of the use follows a fresh def), so sinks (kStore, kRet,
//     list ops, fused appends) take it by std::move — turning
//     vector<Value> deep copies into pointer swaps. kRet may move any
//     non-param register: the frame is gone after the return.
//   * Parameter copy elision: the frontend's prologue stores every
//     parameter into an alloca slot. When that promoted slot has no OTHER
//     store anywhere in the function, it holds exactly the parameter for
//     its whole lifetime — a parameter is a const reference that cannot
//     change while the frame runs, and re-executing the entry block
//     re-stores the same parameter. The slot, the prologue's deep copy,
//     and every load of the slot vanish; uses read `pK` directly. kRet
//     routes such registers through a temporary exactly like a raw
//     parameter, since `*ret` may alias the caller's value.
//   * Cross-call load forwarding (interprocedural): a forwarded load may
//     cross a call on its way to the consumer only when the callee summary
//     (src/analysis/summary.h) proves it pure. Promoted slot addresses never
//     escape the frame, so no callee can write one and purity is stronger
//     than required; demanding an analyzed summary keeps the justification
//     a checked module-wide fact.
//   * Heap-allocation stack promotion (interprocedural): a kNewObject the
//     module-wide escape analysis (src/analysis/escape.h) proves
//     query-local — never stored into another object, never returned,
//     never passed to any callee — and whose pointer is used only as the
//     direct address of kLoad/kStore lives in a C++ local exactly like a
//     promoted alloca. Heap numbering diverges from the interpreter's the
//     same way alloca promotion makes it diverge, and is unobservable for
//     the same reason: the pointer never reaches kPtrEq or the wire.
//   * Typed scalars: every register, promoted slot, parameter and return of
//     AbsIR type int or bool is a plain `int64_t` instead of a boxed Value.
//     The validator types every instruction, and the interpreter only ever
//     builds an int-typed value with Value::Int and a bool-typed one with
//     Value::Bool (arithmetic, comparisons, zero values, and loads of cells
//     that were themselves stored from typed values), so the payload `.i`
//     carries all the information the kind tag would. Scalars are boxed
//     back — Value::Int for int, Value::Bool for bool, so the kind matches
//     the interpreter's — only where a Value is required: a store into
//     ConcreteMemory, a list append/set, and the dispatch-table wrappers
//     that return to or take arguments from the host. Scalar loads, field
//     and element reads take `.i` in place; pointer compares against the
//     null literal test the block and path directly, with no NullPtr
//     temporary. Every check (null, resolve, bounds, divide-by-zero) keeps
//     its program point and message.
//   * Inline GEP paths: a kGep whose result is used only as the address of a
//     kLoad, a kStore or another kGep never becomes a Value; it is a GenPtr
//     (gen_support.h) holding the block and the index path inline, sized
//     from the module's deepest type nesting (MaxPathDepth), so building it
//     allocates nothing. Load/store resolve it through the same
//     ConcreteMemory::Resolve walk. The gep's own null check on its base is
//     unchanged; a GenPtr is the result of such a check, so the null checks
//     a load/store/gep would repeat on it can never fire and are dropped. A
//     gep whose pointer escapes (call argument, kPtrEq, stored, returned)
//     stays a Value, built from a GenPtr base when it has one.
//   * In-place cell appends: `p.xs = append(p.xs, v)` on a heap cell
//     lowers to load A; rX = append rL, v; store A', rX. When rL and rX are
//     single-use, A and A' are the same frame-invariant pointer (a
//     parameter, or geps with equal constant indices over one), and the
//     walk from the load to the append (the forwarding walk above) crosses
//     no store to memory and no call not proven pure, the cell still holds
//     exactly rL when the append runs, so growing it in place stores the
//     value the interpreter would. The load keeps its null and resolve
//     checks but copies nothing; the append re-resolves A' (never holding a
//     pointer across an Alloc) with the store's checks, which are the next
//     checks the interpreter would run — the append itself cannot panic.
class FunctionEmitter {
 public:
  FunctionEmitter(const Module& module, const Function& fn, const SymbolTable& symbols,
                  const InterprocContext& interproc, const EscapeResult& escapes,
                  size_t ptr_capacity, std::ostream& out)
      : module_(module),
        types_(module.types()),
        fn_(fn),
        symbols_(symbols),
        interproc_(interproc),
        escapes_(escapes),
        ptr_capacity_(ptr_capacity),
        out_(out) {}

  void Emit() {
    Analyze();
    out_ << Signature(types_, symbols_.Symbol(fn_.name()), fn_) << " {\n";
    // Depth accounting: the interpreter's entry frame runs at depth 0 and a
    // callee at depth d panics when d > kMaxCallDepth; here the entry frame
    // counts as 1 live frame, so the same query panics at the same call site
    // with kGenMaxCallDepth = kMaxCallDepth + 1 (see gen_support.h).
    out_ << "  if (ctx.depth >= kGenMaxCallDepth) "
            "return GenPanic(ctx, \"call depth limit exceeded\");\n";
    out_ << "  DepthScope depth_guard(ctx);\n";
    // All registers are declared ahead of the first label: C++ forbids a
    // goto that jumps into the scope of a non-vacuously-initialized local.
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      const Instr& instr = fn_.instr(i);
      if ((instr.op == Opcode::kAlloca || instr.op == Opcode::kNewObject) && promoted_[i]) {
        // A param-aliased slot has no storage at all: uses read pK.
        if (slot_param_alias_[i] < 0) {
          bool scalar = IsScalarType(types_, instr.alloc_type);
          out_ << (scalar ? "  int64_t a" : "  Value a") << i << (scalar ? " = 0;\n" : ";\n");
          scalar_locals_ += scalar ? 1 : 0;
        }
      } else if (projectable_[i]) {
        out_ << "  const Value* q" << i << " = nullptr;\n";  // projection, not a copy
      } else if (gen_ptr_[i]) {
        out_ << "  GenPtr<" << ptr_capacity_ << "> r" << i << ";\n";
        ++inline_geps_;
      } else if (instr.ProducesValue() && param_load_[i] < 0 && !forward_[i] &&
                 !cell_load_[i] && !cell_append_[i]) {
        bool scalar = IsScalarType(types_, instr.result_type);
        out_ << (scalar ? "  int64_t r" : "  Value r") << i << (scalar ? " = 0;\n" : ";\n");
        scalar_locals_ += scalar ? 1 : 0;
      }
    }
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      out_ << "bb" << b << ":  // " << fn_.block(b).label << "\n";
      EmitBlock(fn_.block(b).instrs);
    }
    out_ << "}\n";
  }

  // Scalar parameters and returns travel as int64_t; everything else as a
  // Value (const reference in, out-pointer for the result).
  static std::string Signature(const TypeTable& types, const std::string& symbol,
                               const Function& fn) {
    std::string out = StrCat("bool ", symbol, "(GenCtx& ctx");
    for (size_t i = 0; i < fn.params().size(); ++i) {
      out += StrCat(IsScalarType(types, fn.params()[i].type) ? ", int64_t p" : ", const Value& p",
                    i);
    }
    out += IsScalarType(types, fn.return_type()) ? ", int64_t* ret)" : ", Value* ret)";
    return out;
  }

 private:
  // Per-function dataflow facts backing the optimizations. Result registers
  // are instruction indices, so "defined once" is structural; the analyses
  // are use counting, the alloca escape check, the gep address-use check,
  // and the forwarding walk.
  void Analyze() {
    use_count_.assign(fn_.num_instrs(), 0);
    single_user_.assign(fn_.num_instrs(), 0);
    promoted_.assign(fn_.num_instrs(), false);
    gen_ptr_.assign(fn_.num_instrs(), false);
    block_of_.assign(fn_.num_instrs(), fn_.entry());
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      for (uint32_t index : fn_.block(b).instrs) {
        block_of_[index] = b;
      }
    }
    std::vector<bool> gep_escapes(fn_.num_instrs(), false);
    for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
      const Instr& user = fn_.instr(j);
      for (size_t k = 0; k < user.operands.size(); ++k) {
        const Operand& op = user.operands[k];
        if (op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg)) {
          use_count_[op.reg]++;
          single_user_[op.reg] = j;
          bool address_use = k == 0 && (user.op == Opcode::kLoad || user.op == Opcode::kStore ||
                                        user.op == Opcode::kGep);
          gep_escapes[op.reg] = gep_escapes[op.reg] || !address_use;
        }
      }
    }
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      gen_ptr_[i] = ptr_capacity_ > 0 && fn_.instr(i).op == Opcode::kGep && !gep_escapes[i];
    }
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      const Instr& site = fn_.instr(i);
      // kAlloca qualifies on the local use check alone. A kNewObject is a
      // real heap object, so it additionally needs the module-wide escape
      // analysis to prove the object dies with the frame.
      bool candidate = site.op == Opcode::kAlloca ||
                       (site.op == Opcode::kNewObject && escapes_.IsLocal(fn_.name(), i));
      if (!candidate) {
        continue;
      }
      bool address_escapes = false;
      for (uint32_t j = 0; j < fn_.num_instrs() && !address_escapes; ++j) {
        const Instr& user = fn_.instr(j);
        for (size_t k = 0; k < user.operands.size(); ++k) {
          const Operand& op = user.operands[k];
          if (op.kind != Operand::Kind::kReg || op.reg != i) {
            continue;
          }
          bool direct_addr = (user.op == Opcode::kLoad || user.op == Opcode::kStore) && k == 0;
          if (!direct_addr) {
            address_escapes = true;
            break;
          }
        }
      }
      promoted_[i] = !address_escapes;
      if (promoted_[i] && site.op == Opcode::kNewObject) {
        ++stack_promoted_;
      }
    }
    // Parameter copy elision (see the class comment). A promoted slot
    // qualifies when its ONLY store is `store slot, pK` in the entry block
    // and no entry-block load of the slot precedes that store positionally
    // (loads in later blocks always run after the entry block finishes, so
    // they observe the stored parameter regardless of their numbering).
    slot_param_alias_.assign(fn_.num_instrs(), -1);
    param_load_.assign(fn_.num_instrs(), -1);
    const std::vector<uint32_t>& entry = fn_.block(0).instrs;
    const std::unordered_set<uint32_t> entry_instrs(entry.begin(), entry.end());
    for (uint32_t i = 0; i < fn_.num_instrs(); ++i) {
      if (fn_.instr(i).op != Opcode::kAlloca || !promoted_[i]) {
        continue;
      }
      int store_count = 0;
      uint32_t store_idx = 0;
      for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
        const Instr& user = fn_.instr(j);
        if (user.op == Opcode::kStore && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == i) {
          ++store_count;
          store_idx = j;
        }
      }
      if (store_count != 1) {
        continue;
      }
      const Instr& st = fn_.instr(store_idx);
      if (st.operands[1].kind != Operand::Kind::kReg ||
          !Function::IsParamReg(st.operands[1].reg) || entry_instrs.count(store_idx) == 0) {
        continue;
      }
      bool load_before_store = false;
      for (uint32_t idx : entry) {
        if (idx == store_idx) {
          break;
        }
        const Instr& user = fn_.instr(idx);
        if (user.op == Opcode::kLoad && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == i) {
          load_before_store = true;
          break;
        }
      }
      if (load_before_store) {
        continue;
      }
      slot_param_alias_[i] = static_cast<int>(Function::ParamIndex(st.operands[1].reg));
    }
    for (uint32_t j = 0; j < fn_.num_instrs(); ++j) {
      const Instr& user = fn_.instr(j);
      if (user.op == Opcode::kLoad && user.operands[0].kind == Operand::Kind::kReg &&
          !Function::IsParamReg(user.operands[0].reg) &&
          slot_param_alias_[user.operands[0].reg] >= 0) {
        param_load_[j] = slot_param_alias_[user.operands[0].reg];
      }
    }
    // Load forwarding (see the class comment). The entry block counts one
    // extra predecessor: the function's own entry edge.
    preds_.assign(fn_.num_blocks(), 0);
    preds_[fn_.entry()] = 1;
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const Instr& term = fn_.instr(fn_.block(b).instrs.back());
      if (term.op == Opcode::kBr || term.op == Opcode::kJmp) {
        preds_[term.target_true]++;
      }
      if (term.op == Opcode::kBr) {
        preds_[term.target_false]++;
      }
    }
    forward_.assign(fn_.num_instrs(), false);
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
      for (size_t t = 0; t < instrs.size(); ++t) {
        if (!IsForwardableLoad(instrs[t])) {
          continue;
        }
        const uint32_t slot = SlotOf(instrs[t]);
        int crossed_calls = 0;
        if (ReachesUser(b, t, single_user_[instrs[t]], [&](uint32_t index) {
              return MayWriteSlot(fn_.instr(index), slot) || StopsAtCall(index, &crossed_calls);
            })) {
          forward_[instrs[t]] = true;
          cross_call_forwards_ += crossed_calls;
        }
      }
    }
    // Last-use moves (see the class comment).
    dead_after_use_.assign(fn_.num_instrs(), false);
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
      for (size_t t = 0; t < instrs.size(); ++t) {
        if (use_count_[instrs[t]] == 1) {
          dead_after_use_[instrs[t]] =
              ReachesUser(b, t, single_user_[instrs[t]], [](uint32_t) { return false; });
        }
      }
    }
    // In-place cell appends (see the class comment): load A; rX = append
    // rL, v; store A', rX, with A and A' the same frame-invariant address
    // and no memory write between the load and the append.
    cell_load_.assign(fn_.num_instrs(), false);
    cell_append_.assign(fn_.num_instrs(), false);
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
      for (size_t t = 0; t < instrs.size(); ++t) {
        const Instr& load = fn_.instr(instrs[t]);
        if (load.op != Opcode::kLoad || use_count_[instrs[t]] != 1) {
          continue;
        }
        const uint32_t append = single_user_[instrs[t]];
        const Instr& op = fn_.instr(append);
        if (op.op != Opcode::kListAppend || op.operands[0].kind != Operand::Kind::kReg ||
            op.operands[0].reg != instrs[t] || use_count_[append] != 1) {
          continue;
        }
        const Instr& store = fn_.instr(single_user_[append]);
        if (store.op != Opcode::kStore || store.operands[1].kind != Operand::Kind::kReg ||
            store.operands[1].reg != append ||
            !SameFrameAddress(load.operands[0], store.operands[0])) {
          continue;
        }
        // The store must directly follow the append, which the emitter
        // replaces with the fused pair.
        const std::vector<uint32_t>& user_block = fn_.block(block_of_[append]).instrs;
        auto at = std::find(user_block.begin(), user_block.end(), append);
        if (at == user_block.end() || at + 1 == user_block.end() ||
            *(at + 1) != single_user_[append]) {
          continue;
        }
        int crossed_calls = 0;
        if (ReachesUser(b, t, append, [&](uint32_t index) {
              const Instr& instr = fn_.instr(index);
              return (instr.op == Opcode::kStore && !IsPromotedSlotAddr(instr.operands[0])) ||
                     StopsAtCall(index, &crossed_calls);
            })) {
          cell_load_[instrs[t]] = true;
          cell_append_[append] = true;
          ++cell_appends_;
        }
      }
    }
    // Pointer projection (see the class comment). The producer must be an
    // lvalue source: a kLoad resolves to a real cell, while kFieldGet /
    // kListGet need a register base (a literal base would make the pointer
    // point into a dead temporary).
    projectable_.assign(fn_.num_instrs(), false);
    for (BlockId b = 0; b < fn_.num_blocks(); ++b) {
      const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
      for (size_t t = 0; t + 1 < instrs.size(); ++t) {
        uint32_t x = instrs[t];
        const Instr& producer = fn_.instr(x);
        bool lvalue_source =
            (producer.op == Opcode::kLoad && !IsPromotedSlotAddr(producer.operands[0])) ||
            ((producer.op == Opcode::kFieldGet || producer.op == Opcode::kListGet) &&
             producer.operands[0].kind == Operand::Kind::kReg);
        if (!lvalue_source || use_count_[x] != 1 || single_user_[x] != instrs[t + 1]) {
          continue;
        }
        const Instr& user = fn_.instr(instrs[t + 1]);
        bool projecting_user = user.op == Opcode::kFieldGet || user.op == Opcode::kListGet ||
                               user.op == Opcode::kListLen;
        if (projecting_user && user.operands[0].kind == Operand::Kind::kReg &&
            user.operands[0].reg == x) {
          projectable_[x] = true;
        }
      }
    }
  }

  // Walks forward from the instruction at position `pos` of `block` to
  // `user`, through a chain of blocks each entered only from the previous
  // one: by an unconditional jump, or by a conditional branch whose other
  // target only panics (that edge ends the frame, so nothing the walk
  // protects is observed on it). Every execution of `user` is then preceded
  // by the instruction at `pos` and by nothing outside the walked range.
  // Fails on any instruction index `stops` flags and on any other control
  // transfer.
  bool ReachesUser(BlockId block, size_t pos, uint32_t user,
                   const std::function<bool(uint32_t)>& stops) const {
    std::vector<bool> visited(fn_.num_blocks(), false);
    visited[block] = true;
    size_t p = pos + 1;
    while (true) {
      const std::vector<uint32_t>& instrs = fn_.block(block).instrs;
      if (p >= instrs.size()) {
        return false;
      }
      const uint32_t index = instrs[p];
      if (index == user) {
        return true;
      }
      if (stops(index)) {
        return false;
      }
      const Instr& instr = fn_.instr(index);
      if (instr.op == Opcode::kJmp || instr.op == Opcode::kBr) {
        BlockId next = instr.target_true;
        if (instr.op == Opcode::kBr) {
          if (IsPanicBlock(instr.target_true)) {
            next = instr.target_false;
          } else if (!IsPanicBlock(instr.target_false)) {
            return false;
          }
        }
        if (preds_[next] != 1 || visited[next]) {
          return false;
        }
        visited[next] = true;
        block = next;
        p = 0;
        continue;
      }
      if (instr.IsTerminator()) {
        return false;
      }
      ++p;
    }
  }

  // A store to `slot`, or a list append/set on a load of it (which fusion
  // may turn into an in-place write at this position).
  bool MayWriteSlot(const Instr& instr, uint32_t slot) const {
    const bool list_op = instr.op == Opcode::kListAppend || instr.op == Opcode::kListSet;
    if (instr.op != Opcode::kStore && !list_op) {
      return false;
    }
    const Operand& target = instr.operands[0];
    if (target.kind != Operand::Kind::kReg || Function::IsParamReg(target.reg)) {
      return false;
    }
    if (instr.op == Opcode::kStore) {
      return target.reg == slot;
    }
    const Instr& list_def = fn_.instr(target.reg);
    return list_def.op == Opcode::kLoad && list_def.operands[0].kind == Operand::Kind::kReg &&
           list_def.operands[0].reg == slot;
  }

  bool IsPanicBlock(BlockId b) const {
    const std::vector<uint32_t>& instrs = fn_.block(b).instrs;
    return instrs.size() == 1 && fn_.instr(instrs[0]).op == Opcode::kPanic;
  }

  // The parameter an operand always equals (a parameter register, or a load
  // of a parameter-aliased slot), or -1.
  int ParamOf(const Operand& op) const {
    if (op.kind != Operand::Kind::kReg) {
      return -1;
    }
    if (Function::IsParamReg(op.reg)) {
      return static_cast<int>(Function::ParamIndex(op.reg));
    }
    return param_load_[op.reg];
  }

  // True when two address operands name the same pointer every time they
  // are evaluated in one frame: the same parameter, or geps with equal
  // constant indices over such bases. A parameter never changes while its
  // frame runs, so neither does a pointer computed only from one.
  bool SameFrameAddress(const Operand& a, const Operand& b) const {
    if (a.kind != Operand::Kind::kReg || b.kind != Operand::Kind::kReg) {
      return false;
    }
    if (ParamOf(a) >= 0 || ParamOf(b) >= 0) {
      return ParamOf(a) == ParamOf(b);
    }
    const Instr& ga = fn_.instr(a.reg);
    const Instr& gb = fn_.instr(b.reg);
    if (ga.op != Opcode::kGep || gb.op != Opcode::kGep ||
        ga.operands.size() != gb.operands.size()) {
      return false;
    }
    for (size_t k = 1; k < ga.operands.size(); ++k) {
      if (ga.operands[k].kind != Operand::Kind::kIntConst ||
          gb.operands[k].kind != Operand::Kind::kIntConst ||
          ga.operands[k].imm != gb.operands[k].imm) {
        return false;
      }
    }
    return SameFrameAddress(ga.operands[0], gb.operands[0]);
  }

  // True when `op` names a register that is dead after the instruction at
  // `user` consumes it: structurally single-def (reg == defining index),
  // statically single-use, and reached from its def by the forwarding walk,
  // so one dynamic def precedes each dynamic use. Such operands can be
  // std::move'd into their sink. Forwarded and projected operands name live
  // storage and are never movable.
  bool MovableInto(const Operand& op, uint32_t user) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) &&
           single_user_[op.reg] == user && dead_after_use_[op.reg] &&
           !projectable_[op.reg] && !forward_[op.reg] &&
           !promoted_[op.reg] && param_load_[op.reg] < 0;
  }

  // ValueExpr, wrapped in std::move when the operand is provably dead after
  // `user` (or after the whole frame, for kRet). Boxed scalars are
  // temporaries already.
  std::string SinkExpr(const Operand& op, uint32_t user) const {
    std::string expr = ValueExpr(op);
    if (!IsScalarOperand(op) && MovableInto(op, user)) {
      return StrCat("std::move(", expr, ")");
    }
    return expr;
  }

  // A load that reads a promoted slot and feeds exactly one consumer — the
  // candidate for forwarding and fusion.
  bool IsForwardableLoad(uint32_t index) const {
    const Instr& instr = fn_.instr(index);
    return instr.op == Opcode::kLoad && instr.operands[0].kind == Operand::Kind::kReg &&
           !Function::IsParamReg(instr.operands[0].reg) &&
           promoted_[instr.operands[0].reg] && use_count_[index] == 1 &&
           param_load_[index] < 0;  // aliased loads vanish entirely instead
  }

  uint32_t SlotOf(uint32_t load_index) const {
    return fn_.instr(load_index).operands[0].reg;
  }

  bool IsForwarded(const Operand& op) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) && forward_[op.reg];
  }

  // A call a forwarded load may cross: the callee summary proves it pure,
  // i.e. it writes no caller-reachable memory, so no promoted slot changes
  // while it runs. (Slot addresses never leave the frame, so purity is
  // stronger than strictly necessary — but it is a checked interprocedural
  // fact, not an argument the emitter re-derives.)
  bool IsForwardTransparentCall(uint32_t index) const {
    const Instr& instr = fn_.instr(index);
    if (instr.op != Opcode::kCall) {
      return false;
    }
    if (IsIntrinsicCallee(instr.text)) {
      return true;  // listEq compares value lists; it touches no heap cell
    }
    const CalleeSummary* summary = interproc_.SummaryFor(instr.text);
    return summary != nullptr && summary->analyzed && summary->pure;
  }

  // The call test of the forwarding walks: true at a call the summaries do
  // not prove pure; a pure call is counted in `crossed_calls` and passed.
  bool StopsAtCall(uint32_t index, int* crossed_calls) const {
    if (fn_.instr(index).op != Opcode::kCall) {
      return false;
    }
    if (!IsForwardTransparentCall(index)) {
      return true;
    }
    ++*crossed_calls;
    return false;
  }

  // Emits one basic block. Forwarded loads emit nothing (their consumer
  // reads the slot); a fused mutation covers its op and the store after it.
  void EmitBlock(const std::vector<uint32_t>& instrs) {
    for (size_t i = 0; i < instrs.size(); ++i) {
      if (forward_[instrs[i]]) {
        continue;
      }
      if (cell_append_[instrs[i]]) {
        EmitCellAppend(instrs[i], instrs[i + 1]);
        ++i;  // the append consumed its store
        continue;
      }
      if (TryEmitFusedMutation(instrs, i)) {
        ++i;  // the mutation consumed the op and its store
        continue;
      }
      EmitInstr(instrs[i]);
    }
  }

  // load aS; rB = listappend/listset rA, ...; store aS, rB  →  mutate the
  // slot in place. Preconditions checked here; see the class comment for why
  // this is observably identical.
  bool TryEmitFusedMutation(const std::vector<uint32_t>& instrs, size_t op_pos) {
    if (op_pos + 1 >= instrs.size()) {
      return false;
    }
    uint32_t op_index = instrs[op_pos];
    const Instr& op = fn_.instr(op_index);
    if (op.op != Opcode::kListAppend && op.op != Opcode::kListSet) {
      return false;
    }
    // The list operand must be a load forwarded from a promoted slot.
    const Operand& list_op = op.operands[0];
    if (!IsForwarded(list_op)) {
      return false;
    }
    uint32_t slot = SlotOf(list_op.reg);
    // The result must feed exactly the store that writes the same slot back.
    uint32_t store_index = instrs[op_pos + 1];
    const Instr& store = fn_.instr(store_index);
    if (store.op != Opcode::kStore || use_count_[op_index] != 1 ||
        single_user_[op_index] != store_index) {
      return false;
    }
    if (store.operands[0].kind != Operand::Kind::kReg || store.operands[0].reg != slot ||
        store.operands[1].kind != Operand::Kind::kReg || store.operands[1].reg != op_index) {
      return false;
    }
    // A value/index operand forwarded from the same slot would read the cell
    // mid-mutation; keep the interpreter's copy-then-store order instead.
    for (size_t k = 1; k < op.operands.size(); ++k) {
      const Operand& other = op.operands[k];
      if (IsForwarded(other) && SlotOf(other.reg) == slot) {
        return false;
      }
    }
    if (op.op == Opcode::kListAppend) {
      out_ << "  a" << slot << ".elems.push_back(" << SinkExpr(op.operands[1], op_index)
           << ");\n";
    } else {
      out_ << "  {\n"
           << "    int64_t idx = " << IntExpr(op.operands[1]) << ";\n"
           << "    if (idx < 0 || static_cast<size_t>(idx) >= a" << slot
           << ".elems.size()) return GenPanic(ctx, \"index out of range\");\n"
           << "    a" << slot << ".elems[static_cast<size_t>(idx)] = "
           << SinkExpr(op.operands[2], op_index) << ";\n"
           << "  }\n";
    }
    return true;
  }

  // rX = append rL, v; store A', rX  with rL a cell load (cell_load_): grow
  // the cell in place. The store's null and resolve checks run here, where
  // the append (which cannot panic) would have run just before them.
  void EmitCellAppend(uint32_t append, uint32_t store) {
    EmitResolve(fn_.instr(store).operands[0], "Value");
    out_ << "    target->elems.push_back(" << SinkExpr(fn_.instr(append).operands[1], append)
         << ");\n"
         << "  }\n";
  }

  // The C++ variable holding a register: parameters are p<k>, instruction
  // results r<index>.
  static std::string RegName(uint32_t reg) {
    if (Function::IsParamReg(reg)) {
      return StrCat("p", Function::ParamIndex(reg));
    }
    return StrCat("r", reg);
  }

  Type OperandType(const Operand& op) const {
    if (op.kind == Operand::Kind::kReg) {
      return Function::IsParamReg(op.reg) ? fn_.params()[Function::ParamIndex(op.reg)].type
                                          : fn_.instr(op.reg).result_type;
    }
    return op.type;
  }

  bool IsScalarOperand(const Operand& op) const {
    switch (op.kind) {
      case Operand::Kind::kIntConst:
      case Operand::Kind::kBoolConst:
        return true;
      case Operand::Kind::kReg:
        return IsScalarType(types_, OperandType(op));
      case Operand::Kind::kNull:
      case Operand::Kind::kNone:
        break;
    }
    return false;
  }

  bool IsGenPtr(const Operand& op) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) && gen_ptr_[op.reg];
  }

  // An operand as a Value expression (variable reference, forwarded slot,
  // boxed scalar, or literal).
  std::string ValueExpr(const Operand& op) const {
    if (op.kind == Operand::Kind::kBoolConst) {
      return op.imm != 0 ? "Value::Bool(true)" : "Value::Bool(false)";
    }
    if (IsScalarOperand(op)) {
      if (types_.kind(OperandType(op)) == TypeKind::kBool) {
        return StrCat("Value::Bool((", IntExpr(op), ") != 0)");
      }
      return StrCat("Value::Int(", IntExpr(op), ")");
    }
    switch (op.kind) {
      case Operand::Kind::kReg: {
        DNSV_CHECK(!IsGenPtr(op));
        if (!Function::IsParamReg(op.reg)) {
          if (projectable_[op.reg]) {
            return StrCat("(*q", op.reg, ")");
          }
          if (param_load_[op.reg] >= 0) {
            return StrCat("p", param_load_[op.reg]);
          }
          if (forward_[op.reg]) {
            return StrCat("a", SlotOf(op.reg));
          }
        }
        return RegName(op.reg);
      }
      case Operand::Kind::kNull:
        return "Value::NullPtr()";
      default:
        break;
    }
    DNSV_CHECK(false);
    return "Value::Unit()";
  }

  // A scalar operand as a plain int64_t expression — the fast path for
  // arithmetic, comparisons, branch conditions, and indices.
  std::string IntExpr(const Operand& op) const {
    switch (op.kind) {
      case Operand::Kind::kReg: {
        DNSV_CHECK(IsScalarOperand(op));
        if (!Function::IsParamReg(op.reg)) {
          if (param_load_[op.reg] >= 0) {
            return StrCat("p", param_load_[op.reg]);
          }
          if (forward_[op.reg]) {
            return StrCat("a", SlotOf(op.reg));
          }
        }
        return RegName(op.reg);
      }
      case Operand::Kind::kIntConst:
        return IntLiteral(op.imm);
      case Operand::Kind::kBoolConst:
        return op.imm != 0 ? "1LL" : "0LL";
      case Operand::Kind::kNull:
      case Operand::Kind::kNone:
        break;
    }
    DNSV_CHECK(false);
    return "0LL";
  }

  // Opens a block that binds `target` to the cell `addr` points at, with the
  // interpreter's null and resolve checks (a GenPtr is never null, so only
  // the resolve check remains for it).
  void EmitResolve(const Operand& addr, const char* target_type) {
    out_ << "  {\n";
    if (IsGenPtr(addr)) {
      out_ << "    " << target_type << "* target = GenResolve(ctx.memory, r" << addr.reg
           << ");\n";
    } else {
      out_ << "    const Value& ptr = " << ValueExpr(addr) << ";\n"
           << "    if (ptr.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n"
           << "    " << target_type
           << "* target = ctx.memory->Resolve(ptr.block, ptr.path);\n";
    }
    out_ << "    if (target == nullptr) return GenPanic(ctx, \"invalid memory access\");\n";
  }

  void EmitInstr(uint32_t index) {
    const Instr& instr = fn_.instr(index);
    auto val = [&](size_t k) { return ValueExpr(instr.operands[k]); };
    auto num = [&](size_t k) { return IntExpr(instr.operands[k]); };
    auto sink = [&](size_t k) { return SinkExpr(instr.operands[k], index); };
    const bool scalar = instr.ProducesValue() && IsScalarType(types_, instr.result_type);
    std::string dst = StrCat("r", index);
    switch (instr.op) {
      case Opcode::kBinOp:
        EmitBinOp(index, instr);
        break;
      case Opcode::kUnOp:
        if (instr.un_op == UnOp::kNot) {
          out_ << "  " << dst << " = (" << num(0) << ") == 0;\n";
        } else {
          out_ << "  " << dst << " = -(" << num(0) << ");\n";
        }
        break;
      case Opcode::kAlloca:
      case Opcode::kNewObject:
        if (promoted_[index]) {
          if (slot_param_alias_[index] >= 0) {
            break;  // no storage: the slot is an alias for a parameter
          }
          // A re-executed site (loop body) re-zeroes the cell, exactly as a
          // fresh interpreter cell starts zeroed.
          out_ << "  a" << index << " = "
               << (IsScalarType(types_, instr.alloc_type) ? "0"
                                                          : ZeroExpr(types_, instr.alloc_type))
               << ";\n";
          break;
        }
        out_ << "  " << dst << " = Value::Ptr(ctx.memory->Alloc("
             << ZeroExpr(types_, instr.alloc_type) << "));\n";
        break;
      case Opcode::kLoad:
        if (param_load_[index] >= 0) {
          break;  // uses of this register read the parameter directly
        }
        if (IsPromotedSlotAddr(instr.operands[0])) {
          out_ << "  " << dst << " = a" << instr.operands[0].reg << ";\n";
          break;
        }
        EmitResolve(instr.operands[0], "const Value");
        if (cell_load_[index]) {
          // Checks only: the fused append re-resolves the cell and grows it.
        } else if (projectable_[index]) {
          out_ << "    q" << index << " = target;\n";
        } else if (scalar) {
          out_ << "    " << dst << " = target->i;\n";
        } else {
          out_ << "    " << dst << " = *target;\n";
        }
        out_ << "  }\n";
        break;
      case Opcode::kStore:
        if (IsPromotedSlotAddr(instr.operands[0])) {
          if (slot_param_alias_[instr.operands[0].reg] >= 0) {
            break;  // the elided prologue copy: the slot IS the parameter
          }
          out_ << "  a" << instr.operands[0].reg << " = "
               << (IsScalarOperand(instr.operands[1]) ? num(1) : sink(1)) << ";\n";
          break;
        }
        EmitResolve(instr.operands[0], "Value");
        out_ << "    *target = " << sink(1) << ";\n"
             << "  }\n";
        break;
      case Opcode::kGep:
        EmitGep(index, instr);
        break;
      case Opcode::kCall:
        EmitCall(index, instr);
        break;
      case Opcode::kListNew:
        out_ << "  " << dst << " = Value::List();\n";
        break;
      case Opcode::kListLen:
        out_ << "  " << dst << " = static_cast<int64_t>((" << val(0) << ").elems.size());\n";
        break;
      case Opcode::kListGet:
        out_ << "  {\n"
             << "    const Value& list = " << val(0) << ";\n"
             << "    int64_t idx = " << num(1) << ";\n"
             << "    if (idx < 0 || static_cast<size_t>(idx) >= list.elems.size()) "
                "return GenPanic(ctx, \"index out of range\");\n";
        if (projectable_[index]) {
          out_ << "    q" << index << " = &list.elems[static_cast<size_t>(idx)];\n";
        } else if (scalar) {
          out_ << "    " << dst << " = list.elems[static_cast<size_t>(idx)].i;\n";
        } else {
          out_ << "    Value elem = list.elems[static_cast<size_t>(idx)];\n"
               << "    " << dst << " = std::move(elem);\n";
        }
        out_ << "  }\n";
        break;
      case Opcode::kListSet:
        out_ << "  {\n"
             << "    Value list = " << sink(0) << ";\n"
             << "    int64_t idx = " << num(1) << ";\n"
             << "    if (idx < 0 || static_cast<size_t>(idx) >= list.elems.size()) "
                "return GenPanic(ctx, \"index out of range\");\n"
             << "    list.elems[static_cast<size_t>(idx)] = " << sink(2) << ";\n"
             << "    " << dst << " = std::move(list);\n"
             << "  }\n";
        break;
      case Opcode::kListAppend:
        out_ << "  {\n"
             << "    Value list = " << sink(0) << ";\n"
             << "    list.elems.push_back(" << sink(1) << ");\n"
             << "    " << dst << " = std::move(list);\n"
             << "  }\n";
        break;
      case Opcode::kFieldGet:
        if (projectable_[index]) {
          out_ << "  q" << index << " = &(" << val(0) << ").elems[static_cast<size_t>("
               << instr.field_index << ")];\n";
        } else if (scalar) {
          out_ << "  " << dst << " = (" << val(0) << ").elems[static_cast<size_t>("
               << instr.field_index << ")].i;\n";
        } else {
          out_ << "  {\n"
               << "    Value field = (" << val(0) << ").elems[static_cast<size_t>("
               << instr.field_index << ")];\n"
               << "    " << dst << " = std::move(field);\n"
               << "  }\n";
        }
        break;
      case Opcode::kHavoc:
        // Concretely havoc is the zero value (spec-dialect behavior,
        // matching the interpreter).
        out_ << "  " << dst << " = "
             << (scalar ? "0" : ZeroExpr(types_, instr.result_type)) << ";\n";
        break;
      case Opcode::kBr:
        out_ << "  if ((" << num(0) << ") != 0) goto bb" << instr.target_true
             << "; else goto bb" << instr.target_false << ";\n";
        break;
      case Opcode::kJmp:
        out_ << "  goto bb" << instr.target_true << ";\n";
        break;
      case Opcode::kRet:
        if (instr.operands.empty()) {
          out_ << "  *ret = Value::Unit();\n  return true;\n";
        } else if (IsScalarOperand(instr.operands[0])) {
          out_ << "  *ret = " << num(0) << ";\n  return true;\n";
        } else if (instr.operands[0].kind == Operand::Kind::kReg &&
                   !Function::IsParamReg(instr.operands[0].reg) &&
                   !projectable_[instr.operands[0].reg] &&
                   param_load_[instr.operands[0].reg] < 0) {
          // A callee-local register (or promoted slot) cannot alias the
          // caller's destination, and the frame dies here — move it out
          // unconditionally.
          out_ << "  *ret = std::move(" << val(0) << ");\n  return true;\n";
        } else {
          // Through a temporary: a parameter is a const ref into the caller's
          // frame, so the destination register may be the very value the
          // operand refers to.
          out_ << "  {\n    Value result = " << val(0)
               << ";\n    *ret = std::move(result);\n  }\n  return true;\n";
        }
        break;
      case Opcode::kPanic:
        out_ << "  return GenPanic(ctx, " << CppStringLiteral(instr.text) << ");\n";
        break;
    }
  }

  // kGep in its four shapes: Value or GenPtr base, into a Value or a GenPtr
  // result. The null check on a Value base runs at the interpreter's program
  // point; a GenPtr base is never null.
  void EmitGep(uint32_t index, const Instr& instr) {
    const Operand& base = instr.operands[0];
    out_ << "  {\n";
    std::string base_expr;
    if (IsGenPtr(base)) {
      base_expr = StrCat("r", base.reg);
    } else {
      out_ << "    const Value& base = " << ValueExpr(base) << ";\n"
           << "    if (base.IsNullPtr()) return GenPanic(ctx, \"nil pointer dereference\");\n";
      base_expr = "base";
    }
    std::string idxs = "nullptr";
    if (instr.operands.size() > 1) {
      out_ << "    const int64_t idxs[] = {";
      for (size_t k = 1; k < instr.operands.size(); ++k) {
        if (k > 1) out_ << ", ";
        out_ << IntExpr(instr.operands[k]);
      }
      out_ << "};\n";
      idxs = "idxs";
    }
    // GenGepInto builds a Value path in one allocation (or none, when the
    // destination register's capacity suffices); GenPtrGep allocates never.
    out_ << "    " << (gen_ptr_[index] ? "GenPtrGep" : "GenGepInto") << "(&r" << index << ", "
         << base_expr << ", " << idxs << ", " << instr.operands.size() - 1 << ");\n"
         << "  }\n";
  }

  void EmitBinOp(uint32_t index, const Instr& instr) {
    std::string dst = StrCat("r", index);
    if (instr.bin_op == BinOp::kPtrEq || instr.bin_op == BinOp::kPtrNe) {
      EmitPtrCompare(dst, instr);
      return;
    }
    std::string a = IntExpr(instr.operands[0]);
    std::string b = IntExpr(instr.operands[1]);
    auto emit = [&](const char* op) {
      out_ << "  " << dst << " = (" << a << ") " << op << " (" << b << ");\n";
    };
    switch (instr.bin_op) {
      case BinOp::kAdd: emit("+"); break;
      case BinOp::kSub: emit("-"); break;
      case BinOp::kMul: emit("*"); break;
      case BinOp::kDiv:
        out_ << "  if ((" << b << ") == 0) "
             << "return GenPanic(ctx, \"integer divide by zero\");\n";
        emit("/");
        break;
      case BinOp::kMod:
        out_ << "  if ((" << b << ") == 0) "
             << "return GenPanic(ctx, \"integer divide by zero\");\n";
        emit("%");
        break;
      case BinOp::kEq:
      case BinOp::kBoolEq:
        emit("==");
        break;
      case BinOp::kNe:
      case BinOp::kBoolNe:
        emit("!=");
        break;
      case BinOp::kLt: emit("<"); break;
      case BinOp::kLe: emit("<="); break;
      case BinOp::kGt: emit(">"); break;
      case BinOp::kGe: emit(">="); break;
      case BinOp::kAnd:
        out_ << "  " << dst << " = (" << a << ") != 0 && (" << b << ") != 0;\n";
        break;
      case BinOp::kOr:
        out_ << "  " << dst << " = (" << a << ") != 0 || (" << b << ") != 0;\n";
        break;
      case BinOp::kPtrEq:
      case BinOp::kPtrNe:
        break;  // handled above
    }
  }

  // Pointer identity, as the interpreter computes it: same block and same
  // path. Against the null literal (block 0, empty path) that is a test of
  // the other side's block and path, with no NullPtr temporary.
  void EmitPtrCompare(const std::string& dst, const Instr& instr) {
    const char* negate = instr.bin_op == BinOp::kPtrEq ? "" : "!";
    const Operand& x = instr.operands[0];
    const Operand& y = instr.operands[1];
    const bool x_null = x.kind == Operand::Kind::kNull;
    const bool y_null = y.kind == Operand::Kind::kNull;
    if (x_null && y_null) {
      out_ << "  " << dst << " = " << negate << "true;\n";
    } else if (x_null || y_null) {
      out_ << "  {\n"
           << "    const Value& p = " << ValueExpr(x_null ? y : x) << ";\n"
           << "    " << dst << " = " << negate
           << "(p.block == kNullBlockIndex && p.path.empty());\n"
           << "  }\n";
    } else {
      out_ << "  {\n"
           << "    const Value& lhs = " << ValueExpr(x) << ";\n"
           << "    const Value& rhs = " << ValueExpr(y) << ";\n"
           << "    " << dst << " = " << negate
           << "(lhs.block == rhs.block && lhs.path == rhs.path);\n"
           << "  }\n";
    }
  }

  void EmitCall(uint32_t index, const Instr& instr) {
    std::string dst = StrCat("r", index);
    if (instr.text == "listEq") {
      DNSV_CHECK(instr.operands.size() == 2);
      out_ << "  " << dst << " = (" << ValueExpr(instr.operands[0]) << ").elems == ("
           << ValueExpr(instr.operands[1]) << ").elems;\n";
      return;
    }
    const Function* callee = module_.GetFunction(instr.text);
    DNSV_CHECK_MSG(callee != nullptr, "codegen: call to unknown function " + instr.text);
    DNSV_CHECK_MSG(callee->params().size() == instr.operands.size(),
                   "codegen: arity mismatch calling " + instr.text);
    out_ << "  if (!" << symbols_.Symbol(instr.text) << "(ctx";
    for (size_t k = 0; k < instr.operands.size(); ++k) {
      const Operand& arg = instr.operands[k];
      out_ << ", " << (IsScalarOperand(arg) ? IntExpr(arg) : ValueExpr(arg));
    }
    out_ << ", &" << dst << ")) return false;\n";
  }

  bool IsPromotedSlotAddr(const Operand& op) const {
    return op.kind == Operand::Kind::kReg && !Function::IsParamReg(op.reg) &&
           promoted_[op.reg];
  }

 public:
  // Optimization outcomes, for the generated file's trailer.
  int stack_promoted() const { return stack_promoted_; }
  int cross_call_forwards() const { return cross_call_forwards_; }
  int scalar_locals() const { return scalar_locals_; }
  int inline_geps() const { return inline_geps_; }
  int cell_appends() const { return cell_appends_; }

 private:
  const Module& module_;
  const TypeTable& types_;
  const Function& fn_;
  const SymbolTable& symbols_;
  const InterprocContext& interproc_;
  const EscapeResult& escapes_;
  const size_t ptr_capacity_;  // GenPtr index capacity; 0 disables GenPtr
  std::ostream& out_;
  int stack_promoted_ = 0;      // kNewObject sites promoted to C++ locals
  int cross_call_forwards_ = 0; // pure calls crossed by forwarded loads
  int scalar_locals_ = 0;       // registers and slots emitted as int64_t
  int inline_geps_ = 0;         // gep results emitted as GenPtr
  int cell_appends_ = 0;        // memory list appends grown in place
  std::vector<int> use_count_;        // operand references per result register
  std::vector<uint32_t> single_user_; // meaningful only when use_count_ == 1
  std::vector<BlockId> block_of_;     // the block holding each instruction
  std::vector<int> preds_;            // CFG in-edges per block (entry counts one more)
  std::vector<bool> promoted_;        // kAlloca indices promoted to locals
  std::vector<bool> projectable_;     // emitted as const Value* q<i>, not a copy
  std::vector<bool> gen_ptr_;         // kGep results emitted as GenPtr
  std::vector<bool> forward_;         // loads whose consumer reads the slot
  std::vector<bool> dead_after_use_;  // single-use registers movable at that use
  std::vector<bool> cell_load_;       // memory loads whose append grows the cell
  std::vector<bool> cell_append_;     // appends fused with the store after them
  std::vector<int> slot_param_alias_; // promoted slot -> aliased param index, or -1
  std::vector<int> param_load_;       // load of an aliased slot -> param index, or -1
};

}  // namespace

std::string VersionToken(const std::string& version_name) {
  std::string token;
  for (char c : version_name) {
    token += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  DNSV_CHECK(!token.empty());
  return token;
}

PruneStats PruneForCodegen(Module* module) {
  PruneOptions options;
  options.entry_points = EngineAnalysisRoots();
  AnalysisStats analysis;
  return PruneModule(module, options, &analysis);
}

void EmitGenModule(const Module& module, EngineVersion version,
                   const std::string& version_name, uint64_t fingerprint,
                   std::ostream& out) {
  SymbolTable symbols(module);
  const TypeTable& types = module.types();
  // Interprocedural facts feeding the emitter. Every generated function is
  // externally callable through the GenFnEntry dispatch table, so — unlike
  // the verifier, which roots the analysis at EngineAnalysisRoots — every
  // function is an entry point here and no parameter fact may be assumed.
  // Purity summaries and escape classifications are entry-independent, and
  // those are the only facts the emitter consumes.
  std::vector<std::string> all_roots;
  for (const auto& fn : module.functions()) {
    all_roots.push_back(fn->name());
  }
  CallGraph graph = CallGraph::Build(module);
  AnalysisStats analysis;
  InterprocContext interproc = ComputeInterprocContext(module, graph, all_roots, &analysis);
  PointsTo points_to = PointsTo::Solve(module, graph, all_roots, &analysis);
  EscapeResult escapes = ComputeEscapes(module, graph, points_to, &analysis);
  char fp_buf[32];
  std::snprintf(fp_buf, sizeof(fp_buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));

  out << "// Generated by absir-codegen from the post-prune AbsIR of engine "
      << version_name << ".\n"
      << "// Do not edit; regenerate via the build. IR fingerprint: " << fp_buf << ".\n"
      << "#include <utility>\n"
      << "#include <vector>\n\n"
      << "#include \"src/exec/gen_support.h\"\n\n"
      << "#if defined(__GNUC__)\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-label\"\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-variable\"\n"
      << "#pragma GCC diagnostic ignored \"-Wunused-but-set-variable\"\n"
      << "#endif\n\n"
      << "namespace dnsv {\n"
      << "namespace execgen {\n"
      << "namespace gen_" << VersionToken(version_name) << " {\n"
      << "namespace {\n\n";

  for (const auto& fn : module.functions()) {
    out << FunctionEmitter::Signature(types, symbols.Symbol(fn->name()), *fn) << ";\n";
  }
  out << "\n";
  const size_t ptr_capacity = MaxPathDepth(module);
  int promoted_total = 0;
  int carried_total = 0;
  int scalar_total = 0;
  int inline_gep_total = 0;
  int cell_append_total = 0;
  for (const auto& fn : module.functions()) {
    FunctionEmitter emitter(module, *fn, symbols, interproc, escapes, ptr_capacity, out);
    emitter.Emit();
    promoted_total += emitter.stack_promoted();
    carried_total += emitter.cross_call_forwards();
    scalar_total += emitter.scalar_locals();
    inline_gep_total += emitter.inline_geps();
    cell_append_total += emitter.cell_appends();
    out << "\n";
  }
  out << "// interproc codegen: " << promoted_total
      << " heap allocation(s) stack-promoted, " << carried_total
      << " load(s) carried across summarized pure calls.\n"
      << "// typed codegen: " << scalar_total << " scalar local(s) as int64_t, "
      << inline_gep_total << " gep(s) as inline paths of capacity " << ptr_capacity << ", "
      << cell_append_total << " memory list append(s) in place.\n\n";

  // Uniform vector-unpacking wrappers, one per function, for the GenFnEntry
  // dispatch table. They unbox scalar arguments and box a scalar result with
  // the kind its AbsIR type gives it, as the interpreter would.
  for (const auto& fn : module.functions()) {
    const std::string& symbol = symbols.Symbol(fn->name());
    const bool scalar_ret = IsScalarType(types, fn->return_type());
    out << "bool call_" << symbol.substr(3)
        << "(GenCtx& ctx, const std::vector<Value>& args, Value* ret) {\n";
    if (scalar_ret) {
      out << "  int64_t result = 0;\n  if (!" << symbol << "(ctx";
    } else {
      out << "  return " << symbol << "(ctx";
    }
    for (size_t i = 0; i < fn->params().size(); ++i) {
      out << ", args[" << i << "]" << (IsScalarType(types, fn->params()[i].type) ? ".i" : "");
    }
    if (scalar_ret) {
      out << ", &result)) return false;\n"
          << (types.kind(fn->return_type()) == TypeKind::kBool
                  ? "  *ret = Value::Bool(result != 0);\n"
                  : "  *ret = Value::Int(result);\n")
          << "  return true;\n}\n";
    } else {
      out << ", ret);\n}\n";
    }
  }

  out << "\nconst GenFnEntry kEntries[] = {\n";
  for (const auto& fn : module.functions()) {
    out << "    {" << CppStringLiteral(fn->name()) << ", &call_"
        << symbols.Symbol(fn->name()).substr(3) << ", "
        << fn->params().size() << "},\n";
  }
  out << "};\n\n"
      << "}  // namespace\n\n"
      << "extern const GenModule kModule;\n"
      << "const GenModule kModule = {" << VersionEnumerator(version) << ", "
      << CppStringLiteral(version_name) << ", " << fp_buf << "ull, kEntries,\n"
      << "                            sizeof(kEntries) / sizeof(kEntries[0])};\n\n"
      << "}  // namespace gen_" << VersionToken(version_name) << "\n"
      << "}  // namespace execgen\n"
      << "}  // namespace dnsv\n";
}

void EmitGenManifest(const std::vector<std::string>& version_names, std::ostream& out) {
  out << "// Generated by absir-codegen: the AllGenModules() registry over every\n"
      << "// engine version emitted in this build. Do not edit.\n"
      << "#include \"src/exec/gen_support.h\"\n\n"
      << "namespace dnsv {\n"
      << "namespace execgen {\n\n";
  for (const std::string& name : version_names) {
    out << "namespace gen_" << VersionToken(name) << " { extern const GenModule kModule; }\n";
  }
  out << "\nconst GenModule* const* AllGenModules(size_t* count) {\n"
      << "  static const GenModule* const kModules[] = {\n";
  for (const std::string& name : version_names) {
    out << "      &gen_" << VersionToken(name) << "::kModule,\n";
  }
  out << "  };\n"
      << "  *count = sizeof(kModules) / sizeof(kModules[0]);\n"
      << "  return kModules;\n"
      << "}\n\n"
      << "}  // namespace execgen\n"
      << "}  // namespace dnsv\n";
}

}  // namespace dnsv
