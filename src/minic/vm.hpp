#pragma once
// The MiniC bytecode VM: compiles each function of a linked program to
// compact register bytecode on first call and executes it with a
// direct-threaded dispatch loop (computed goto where the compiler supports
// it, a switch otherwise). Semantics — memory model, builtins, device
// context, diagnostics, and the fuel (`steps`) accounting — come from the
// shared `Machine` runtime, so results are bit-identical to the
// tree-walking `Interpreter`; the VM only removes the per-node dispatch
// overhead of the Execute stage. Lambda bodies compile to their own chunks
// and OMP structured regions to subchunks; member and view-call stores
// route through the machine's lvalue resolver (Op::LvTree) and plain
// array/struct declarations through the shared declare helpers, so the
// constructs still without a bytecode lowering are: initializer-list
// expressions, brace-initialized array/struct declarations, View/dim3
// constructor declarations, kernel launches, and a break/continue that
// leaves an OpenMP region. Each falls back to the machine's tree-walker
// per-instruction, counted by tree_fallbacks(). A chunk ends with the same
// control-flow value the walker's statements return (minic::Flow).

#include <memory>
#include <string>
#include <vector>

#include "minic/engine.hpp"

namespace pareval::minic {

class ChunkPack;

class Vm final : public ExecEngine {
 public:
  /// `chunks` (optional) is a shared per-program chunk cache: compiled
  /// functions and lambda bodies are reused across Vm instances. It starts
  /// empty for every link, cold or object-warm. Without one the Vm keeps a
  /// private pack.
  Vm(const LinkedProgram& prog, const BuiltinTable& builtins,
     RunLimits limits = {}, std::shared_ptr<ChunkPack> chunks = nullptr);
  ~Vm() override;

  /// Run main() with the given command-line arguments (argv[1..]).
  RunResult run(const std::vector<std::string>& args) override;
  EngineKind kind() const override { return EngineKind::Vm; }
  long long tree_fallbacks() const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pareval::minic
