#include "minic/interp.hpp"

#include "minic/machine.hpp"

namespace pareval::minic {

Interpreter::Interpreter(const LinkedProgram& prog,
                         const BuiltinTable& builtins, RunLimits limits)
    : machine_(std::make_unique<Machine>(prog, builtins, limits)) {}

Interpreter::~Interpreter() = default;

RunResult Interpreter::run(const std::vector<std::string>& args) {
  return machine_->run(args);
}

}  // namespace pareval::minic
