#include "codeanal/includes.hpp"

#include <algorithm>
#include <set>

#include "codeanal/lexer.hpp"
#include "support/strings.hpp"

namespace pareval::codeanal {

namespace {

bool is_source_path(const std::string& path) {
  const std::string ext = vfs::extension(path);
  return ext == ".c" || ext == ".cpp" || ext == ".cu" || ext == ".h" ||
         ext == ".hpp" || ext == ".cuh";
}

}  // namespace

std::vector<IncludeRef> scan_includes(std::string_view source) {
  return scan_includes(lex(source).tokens);
}

std::vector<IncludeRef> scan_includes(const std::vector<Token>& toks) {
  std::vector<IncludeRef> out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::PpDirective) continue;
    std::string_view body = support::trim(t.text);
    if (!body.starts_with("#")) continue;
    body.remove_prefix(1);
    body = support::trim(body);
    if (!body.starts_with("include")) continue;
    body.remove_prefix(7);
    body = support::trim(body);
    if (body.size() >= 2 && body.front() == '"') {
      const auto close = body.find('"', 1);
      if (close != std::string_view::npos) {
        out.push_back({std::string(body.substr(1, close - 1)), false, t.line});
      }
    } else if (body.size() >= 2 && body.front() == '<') {
      const auto close = body.find('>', 1);
      if (close != std::string_view::npos) {
        out.push_back({std::string(body.substr(1, close - 1)), true, t.line});
      }
    }
  }
  return out;
}

IncludeGraph build_include_graph(const vfs::Repo& repo) {
  IncludeGraph g;
  for (const auto& f : repo.files()) {
    if (!is_source_path(f.path)) continue;
    g.edges[f.path];  // ensure the node exists
    for (const IncludeRef& inc : scan_includes(f.content)) {
      if (inc.angled) {
        g.system_includes[f.path].push_back(inc.target);
        continue;
      }
      // Quoted include: resolve relative to the including file first,
      // then relative to the repo root (matching our simulated compilers).
      std::string resolved;
      const std::string sibling = vfs::join_path(vfs::dirname(f.path), inc.target);
      if (repo.exists(sibling)) {
        resolved = sibling;
      } else {
        const std::string rooted = vfs::normalize_path(inc.target);
        if (repo.exists(rooted)) resolved = rooted;
      }
      if (resolved.empty()) {
        g.unresolved[f.path].push_back(inc.target);
      } else {
        g.edges[f.path].push_back(resolved);
      }
    }
  }
  return g;
}

std::vector<std::string> translation_order(const vfs::Repo& repo) {
  const IncludeGraph g = build_include_graph(repo);

  // Kahn's algorithm over source files; dependencies (included files) first.
  std::map<std::string, int> pending;  // file -> #unprocessed dependencies
  for (const auto& [file, deps] : g.edges) {
    pending[file] = static_cast<int>(deps.size());
  }
  std::map<std::string, std::vector<std::string>> dependents;
  for (const auto& [file, deps] : g.edges) {
    for (const auto& d : deps) dependents[d].push_back(file);
  }

  std::vector<std::string> order;
  std::set<std::string> ready;
  for (const auto& [file, n] : pending) {
    if (n == 0) ready.insert(file);
  }
  while (!ready.empty()) {
    const std::string file = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(file);
    for (const auto& dep : dependents[file]) {
      if (--pending[dep] == 0) ready.insert(dep);
    }
  }
  // Cycle remnants (shouldn't happen): append deterministically.
  for (const auto& [file, n] : pending) {
    if (n > 0) order.push_back(file);
  }
  // Non-source files (build system, docs) last.
  for (const auto& path : repo.paths()) {
    if (!is_source_path(path)) order.push_back(path);
  }
  return order;
}

}  // namespace pareval::codeanal
