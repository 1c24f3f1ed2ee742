#pragma once
// The pluggable execution-engine API. A linked MiniC program can be run by
// more than one backend — today the tree-walking `Interpreter` and the
// bytecode `Vm` — and everything downstream (execsim::run_executable, the
// scoring pipeline, the sweep tools) selects one through this interface
// instead of naming a concrete engine. Engines are required to be
// bit-identical in every observable (stdout/stderr, exit code, diags,
// RunStats including `steps`); the differential test suite and the
// sweep_merge --verify reference run enforce it.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "minic/builtins.hpp"
#include "minic/program.hpp"
#include "minic/runio.hpp"

namespace pareval::minic {

enum class EngineKind {
  Interp,  // AST tree-walker (the reference semantics)
  Vm,      // register bytecode + direct-threaded dispatch
};

/// Stable machine key ("interp" / "vm") and its inverse. One spelling for
/// CLI flags, shard files, and bench reports.
const char* engine_key(EngineKind kind);
std::optional<EngineKind> engine_from_key(std::string_view key);

/// One runnable instance of an engine, bound to a linked program. Run
/// main() with the given command-line arguments (argv[1..]). Engines are
/// single-shot: construct, run once, discard.
class ExecEngine {
 public:
  virtual ~ExecEngine() = default;
  virtual RunResult run(const std::vector<std::string>& args) = 0;
  virtual EngineKind kind() const = 0;
  /// Tree-walk fallback instructions executed by the last run(): the
  /// residual AST surface the bytecode compiler could not lower (zero for
  /// a pure tree-walker, whose every step is by definition not a
  /// *fallback*). Engine-local coverage telemetry — deliberately not part
  /// of RunResult/RunStats, which stay bit-identical across engines.
  virtual long long tree_fallbacks() const { return 0; }
};

class ChunkPack;

/// Engine factory: the one place that maps EngineKind to a concrete class.
/// `chunks` (optional) is the executable's shared compiled-chunk cache for
/// the Vm backend: empty after every link, cold or object-warm, and filled
/// lazily by Vm runs. The tree-walker ignores it and runs no chunk.
std::unique_ptr<ExecEngine> make_engine(EngineKind kind,
                                        const LinkedProgram& prog,
                                        const BuiltinTable& builtins,
                                        RunLimits limits = {},
                                        std::shared_ptr<ChunkPack> chunks =
                                            nullptr);

}  // namespace pareval::minic
