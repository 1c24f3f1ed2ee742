#pragma once
// The MiniC tree-walking interpreter: executes a linked program against the
// simulated host/device machine. This is the reproduction's stand-in for the
// paper's evaluation GPU (an NVIDIA A100 on Zaratan): translated applications
// are genuinely *run* and their output compared with golden references, and
// the run statistics record whether compute actually happened in device
// context (the paper requires translations to "execute on the hardware
// specified").
//
// The interpreter is the reference semantics; the bytecode `Vm`
// (minic/vm.hpp) must match it bit-for-bit. Both drive the shared `Machine`
// runtime — this class is a thin ExecEngine shell over it. It is a pure
// tree-walker: it never compiles or runs a bytecode chunk, so a Vm result
// is always checked against an execution that shares no bytecode with it.

#include <memory>
#include <string>
#include <vector>

#include "minic/engine.hpp"

namespace pareval::minic {

class Machine;

class Interpreter final : public ExecEngine {
 public:
  Interpreter(const LinkedProgram& prog, const BuiltinTable& builtins,
              RunLimits limits = {});
  ~Interpreter() override;

  /// Run main() with the given command-line arguments (argv[1..]).
  RunResult run(const std::vector<std::string>& args) override;
  EngineKind kind() const override { return EngineKind::Interp; }

 private:
  std::unique_ptr<Machine> machine_;
};

}  // namespace pareval::minic
