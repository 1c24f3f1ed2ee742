#pragma once
// Top-level build orchestration: detect the repository's build system
// (CMakeLists.txt or Makefile), run configure/plan, execute the compiler
// command lines through the simulated toolchains, and link an Executable.
// The rendered build log is what the error-classification pipeline
// (word2vec + DBSCAN, §6.3) consumes.

#include <cstdint>
#include <optional>
#include <string>

#include "execsim/driver.hpp"
#include "minic/diag.hpp"
#include "vfs/repo.hpp"

namespace pareval::buildsim {

class TuCompileCache;
class LinkCache;

struct BuildResult {
  bool ok = false;
  minic::DiagBag diags;
  std::string log;          // make-style transcript: commands + diagnostics
  std::optional<execsim::Executable> exe;
  minic::Capabilities caps; // union over all invocations
  std::string build_system; // "make", "cmake" or "" (none found)

  /// The diagnostic category every error of this build shares — the
  /// structured provenance a failed Build stage carries (eval/pipeline).
  /// nullopt when the build has no errors or errors of several categories
  /// (an ambiguous failure the classifier resolves by keyword instead).
  std::optional<minic::DiagCategory> sole_error_category() const;
};

/// Build the repository. `make_target` selects a Makefile goal ("" =
/// default). CMakeLists.txt takes precedence when both files exist.
///
/// With a TuCompileCache, every compiler invocation's TU compiles are
/// memoized content-addressed (builds differing only in their build file
/// share every TU), the build's outcome is recorded, and a
/// build whose *failed* outcome the cache already holds (persisted from a
/// previous process) is reconstructed without compiling at all. Cached and
/// uncached builds are bit-identical. `repo_hash` (optional) is a
/// precomputed repo_content_hash(repo): the scoring pipeline hands in the
/// hash it just computed for the build-artifact key so the plan key does
/// not re-hash the whole repo.
///
/// With a LinkCache as well (requires the TU cache — link keys are built
/// from TU content keys), each link step's outcome is memoized
/// content-addressed: a warm hit reconstructs the Executable with
/// pre-compiled bytecode instead of running link_units.
BuildResult build_repo(const vfs::Repo& repo,
                       const std::string& make_target = "",
                       TuCompileCache* tu_cache = nullptr,
                       std::optional<std::uint64_t> repo_hash = std::nullopt,
                       LinkCache* link_cache = nullptr);

}  // namespace pareval::buildsim
