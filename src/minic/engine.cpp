#include "minic/engine.hpp"

#include "minic/interp.hpp"
#include "minic/vm.hpp"

namespace pareval::minic {

const char* engine_key(EngineKind kind) {
  switch (kind) {
    case EngineKind::Interp: return "interp";
    case EngineKind::Vm: return "vm";
  }
  return "interp";
}

std::optional<EngineKind> engine_from_key(std::string_view key) {
  if (key == "interp") return EngineKind::Interp;
  if (key == "vm") return EngineKind::Vm;
  return std::nullopt;
}

std::unique_ptr<ExecEngine> make_engine(EngineKind kind,
                                        const LinkedProgram& prog,
                                        const BuiltinTable& builtins,
                                        RunLimits limits,
                                        std::shared_ptr<ChunkPack> chunks) {
  switch (kind) {
    case EngineKind::Vm:
      return std::make_unique<Vm>(prog, builtins, limits, std::move(chunks));
    case EngineKind::Interp:
      break;
  }
  return std::make_unique<Interpreter>(prog, builtins, limits);
}

}  // namespace pareval::minic
