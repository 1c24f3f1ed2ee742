#pragma once
// Compile driver: turn a set of repo source files into a runnable
// Executable for a given capability configuration. This is the common path
// under the simulated toolchains (nvcc / clang+offload / g++ + Kokkos) and
// the test suites.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "execsim/registry.hpp"
#include "minic/engine.hpp"
#include "minic/program.hpp"
#include "vfs/repo.hpp"

namespace pareval::minic {
class ChunkPack;
}

namespace pareval::execsim {

struct Executable {
  minic::LinkedProgram program;
  // Shared, not owned per-copy: compiled Chunks reference BuiltinDefs by
  // pointer, so every copy of an executable (build cache, link cache)
  // must see the one table those pointers resolve into.
  std::shared_ptr<const minic::BuiltinTable> builtins;
  minic::DiagBag diags;  // compile + link diagnostics
  // Shared compiled-bytecode cache for the VM engine. Created empty by
  // link_tus and by a warm link-cache hit alike; every Vm run of this
  // executable reuses it, so a function compiles at most once per link.
  // The tree-walking Interpreter never touches it.
  std::shared_ptr<minic::ChunkPack> chunks;

  bool ok() const { return !diags.has_errors(); }
};

/// Process-wide front-end work counters: how many TU parses (compile_tu)
/// and links (link_tus) actually ran. A fully object-warm start must leave
/// both untouched — the CI warm gates and the sweep_merge --verify
/// object-warm reference assert zero deltas across a whole sweep.
struct DriverCounters {
  std::uint64_t parses = 0;
  std::uint64_t links = 0;
  /// Tree-walk fallback instructions executed by VM runs (see
  /// ExecEngine::tree_fallbacks): the bytecode compiler's residual
  /// coverage gap, summed over every run_executable call.
  std::uint64_t tree_fallbacks = 0;
};
DriverCounters driver_counters();

/// Compile `sources` (translation units) from `repo` with the given
/// capabilities. Extra predefined macros may be injected (-DNAME=V).
Executable compile_repo(
    const vfs::Repo& repo, const std::vector<std::string>& sources,
    const minic::Capabilities& caps,
    const std::vector<std::pair<std::string, std::string>>& defines = {});

/// Run a compiled executable under the chosen execution engine (tree
/// interpreter by default, bytecode VM opt-in — both produce bit-identical
/// results). Returns a failed RunResult with a diagnostic if the
/// executable has compile errors.
minic::RunResult run_executable(
    const Executable& exe, const std::vector<std::string>& args,
    minic::RunLimits limits = {},
    minic::EngineKind engine = minic::EngineKind::Interp);

/// Compile a single translation unit under its own capability set (the
/// build simulator compiles each source with the flags of its own compiler
/// invocation). Diagnostics are left in the returned TU.
std::shared_ptr<minic::TranslationUnit> compile_tu(
    const vfs::Repo& repo, const std::string& source,
    const minic::Capabilities& caps,
    const std::vector<std::pair<std::string, std::string>>& defines = {});

/// Link already-compiled TUs into an Executable under the union
/// capabilities of the build.
Executable link_tus(std::vector<std::shared_ptr<minic::TranslationUnit>> tus,
                    const minic::Capabilities& caps);

}  // namespace pareval::execsim
