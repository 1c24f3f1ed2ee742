#include "minic/diag.hpp"

namespace pareval::minic {

const char* diag_category_key(DiagCategory c) {
  switch (c) {
    case DiagCategory::MakefileSyntax: return "makefile-syntax";
    case DiagCategory::MissingBuildTarget: return "missing-build-target";
    case DiagCategory::CMakeConfig: return "cmake-config";
    case DiagCategory::InvalidCompilerFlag: return "invalid-compiler-flag";
    case DiagCategory::MissingHeader: return "missing-header";
    case DiagCategory::CodeSyntax: return "code-syntax";
    case DiagCategory::UndeclaredIdentifier: return "undeclared-identifier";
    case DiagCategory::ArgTypeMismatch: return "arg-type-mismatch";
    case DiagCategory::OmpInvalidDirective: return "omp-invalid-directive";
    case DiagCategory::LinkError: return "link-error";
    case DiagCategory::RuntimeFault: return "runtime-fault";
    case DiagCategory::WrongOutput: return "wrong-output";
    case DiagCategory::WrongExecutionModel: return "wrong-execution-model";
    case DiagCategory::Other: return "other";
  }
  return "?";
}

bool diag_category_from_key(const std::string& key, DiagCategory* out) {
  for (const DiagCategory c :
       {DiagCategory::MakefileSyntax, DiagCategory::MissingBuildTarget,
        DiagCategory::CMakeConfig, DiagCategory::InvalidCompilerFlag,
        DiagCategory::MissingHeader, DiagCategory::CodeSyntax,
        DiagCategory::UndeclaredIdentifier, DiagCategory::ArgTypeMismatch,
        DiagCategory::OmpInvalidDirective, DiagCategory::LinkError,
        DiagCategory::RuntimeFault, DiagCategory::WrongOutput,
        DiagCategory::WrongExecutionModel, DiagCategory::Other}) {
    if (key == diag_category_key(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

std::string Diag::render() const {
  std::string out;
  if (!file.empty()) {
    out += file;
    out += ":";
    if (line > 0) out += std::to_string(line) + ":";
    out += " ";
  }
  out += severity == Severity::Error ? "error: " : "warning: ";
  out += message;
  return out;
}

bool DiagBag::has_errors() const {
  for (const auto& d : diags_) {
    if (d.severity == Severity::Error) return true;
  }
  return false;
}

void DiagBag::merge(const DiagBag& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string DiagBag::render() const {
  std::string out;
  for (const auto& d : diags_) {
    out += d.render();
    out += '\n';
  }
  return out;
}

}  // namespace pareval::minic
