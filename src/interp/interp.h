// Concrete AbsIR interpreter.
//
// This is the "production runtime" of the repo: the same engine IR that
// DNS-V verifies is executed here to serve queries in the examples, and it is
// the reference for differential testing of the symbolic executor.
#ifndef DNSV_INTERP_INTERP_H_
#define DNSV_INTERP_INTERP_H_

#include <string>
#include <vector>

#include "src/interp/value.h"
#include "src/ir/function.h"

namespace dnsv {

struct ExecOutcome {
  enum class Kind { kReturned, kPanicked, kStepLimit };
  Kind kind = Kind::kReturned;
  Value return_value;        // kReturned
  std::string panic_message; // kPanicked
  int64_t steps = 0;         // instructions executed

  bool ok() const { return kind == Kind::kReturned; }
};

class Interpreter {
 public:
  // `memory` holds the pre-built heap (e.g. the concrete domain tree) and
  // receives all allocations made during execution.
  Interpreter(const Module* module, ConcreteMemory* memory)
      : module_(module), memory_(memory) {}

  // Executes `function` with `args`. Runaway loops/recursion stop at
  // `max_steps` with kStepLimit.
  ExecOutcome Run(const Function& function, const std::vector<Value>& args,
                  int64_t max_steps = 10'000'000);

 private:
  struct Frame;
  Value EvalOperand(const Frame& frame, const Operand& op);
  // A register or parameter operand, read in place (aggregate reads then
  // copy only the part they return).
  const Value& RegValue(const Frame& frame, const Operand& op);
  ExecOutcome RunFrame(const Function& function, std::vector<Value> args, int depth,
                       int64_t* steps, int64_t max_steps);

  const Module* module_;
  ConcreteMemory* memory_;
  static constexpr int kMaxCallDepth = 256;
};

}  // namespace dnsv

#endif  // DNSV_INTERP_INTERP_H_
