#pragma once
// #include dependency analysis: the paper's dependency agent "utilizes the
// clang compiler to determine #include dependencies only, precluding the
// existence of circular dependencies" (§3.2). We extract the same graph
// from the token stream and topologically order files so that files with
// no dependencies are translated first.

#include <map>
#include <string>
#include <vector>

#include "codeanal/lexer.hpp"
#include "vfs/repo.hpp"

namespace pareval::codeanal {

/// One #include directive found in a file.
struct IncludeRef {
  std::string target;  // as written, e.g. "kernel.h" or <cstdio>
  bool angled = false; // <...> (system) vs "..." (repo-relative)
  int line = 0;
  bool operator==(const IncludeRef&) const = default;
};

/// All #include directives in one source text.
std::vector<IncludeRef> scan_includes(std::string_view source);
/// The same, read from the PpDirective tokens of an existing lex.
std::vector<IncludeRef> scan_includes(const std::vector<Token>& toks);

/// The per-repository include graph over repo files. System includes are
/// recorded but produce no edges.
struct IncludeGraph {
  /// file -> repo files it includes (resolved paths, existing files only)
  std::map<std::string, std::vector<std::string>> edges;
  /// file -> system headers it includes (angled, or unresolved quoted)
  std::map<std::string, std::vector<std::string>> system_includes;
  /// Repo-relative quoted includes that do not resolve to any repo file.
  std::map<std::string, std::vector<std::string>> unresolved;
};

/// Build the include graph for every analysable file in the repo.
IncludeGraph build_include_graph(const vfs::Repo& repo);

/// Topological order (dependencies first). Files that are not C/C++ sources
/// (build files, docs) come last, mirroring the paper's translation order.
/// Cycles cannot occur through #include in our dialect, but the function is
/// robust to them (members of a cycle are appended in path order).
std::vector<std::string> translation_order(const vfs::Repo& repo);

}  // namespace pareval::codeanal
