#pragma once
// Diagnostics for the MiniC toolchain. Categories intentionally mirror the
// error classes of the paper's Figure 3 so the classification pipeline can
// be validated end-to-end against known ground truth.

#include <string>
#include <vector>

namespace pareval::minic {

enum class DiagCategory {
  // Build-file stage (produced by buildsim, carried in the same type).
  MakefileSyntax,       // "CMake or Makefile Syntax Error"
  MissingBuildTarget,   // "Makefile Missing Build Target"
  CMakeConfig,          // "CMake Config Error"
  InvalidCompilerFlag,  // "Invalid Compiler Flag"
  // Compile stage.
  MissingHeader,        // "Missing Header File"
  CodeSyntax,           // "Code Syntax Error"
  UndeclaredIdentifier, // "Undeclared Identifier"
  ArgTypeMismatch,      // "Function Argument or Type Mismatch"
  OmpInvalidDirective,  // "OpenMP Invalid Directive"
  // Link stage.
  LinkError,            // "Linker Error"
  // Run stage (never a build failure).
  RuntimeFault,         // device/host memory faults, traps, timeouts
  WrongOutput,          // validation mismatch
  WrongExecutionModel,  // did not run on the requested device / model
  Other,
};

/// Stable machine key of a category ("makefile-syntax",
/// "undeclared-identifier", ...) and its inverse. One spelling shared by
/// every on-disk artifact that carries a category: stage outcomes in shard
/// files and the persisted score cache (eval/pipeline's diag_detail_key
/// forwards here) and serialized diagnostics in the persisted TU compile
/// cache (buildsim/tucache).
const char* diag_category_key(DiagCategory c);
bool diag_category_from_key(const std::string& key, DiagCategory* out);

enum class Severity { Warning, Error };

struct Diag {
  DiagCategory category = DiagCategory::Other;
  Severity severity = Severity::Error;
  std::string message;   // formatted like a real compiler diagnostic
  std::string file;      // repo-relative path when known
  int line = 0;

  /// Render as "file:line: error: message".
  std::string render() const;
};

/// A sink that modules append diagnostics to.
class DiagBag {
 public:
  void add(Diag d) { diags_.push_back(std::move(d)); }
  void error(DiagCategory cat, std::string msg, std::string file = "",
             int line = 0) {
    add({cat, Severity::Error, std::move(msg), std::move(file), line});
  }
  void warning(DiagCategory cat, std::string msg, std::string file = "",
               int line = 0) {
    add({cat, Severity::Warning, std::move(msg), std::move(file), line});
  }

  bool has_errors() const;
  const std::vector<Diag>& all() const { return diags_; }
  std::vector<Diag>& all() { return diags_; }
  void merge(const DiagBag& other);
  /// All diagnostics rendered compiler-style, one per line.
  std::string render() const;

 private:
  std::vector<Diag> diags_;
};

}  // namespace pareval::minic
