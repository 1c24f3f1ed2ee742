#include "translate/mutate.hpp"

#include <algorithm>

#include "codeanal/lexer.hpp"
#include "support/sharded_cache.hpp"
#include "support/strings.hpp"

namespace pareval::xlate {

using support::Rng;

namespace {

bool is_source_file(const std::string& path) {
  const std::string ext = vfs::extension(path);
  return ext == ".c" || ext == ".cpp" || ext == ".cu" || ext == ".h" ||
         ext == ".hpp" || ext == ".cuh";
}

std::vector<std::string> source_paths(const vfs::Repo& repo, Rng& rng) {
  std::vector<std::string> out;
  for (const auto& p : repo.paths()) {
    if (is_source_file(p)) out.push_back(p);
  }
  // Rotate deterministically so different samples pick different files.
  if (!out.empty()) {
    const std::size_t shift = rng.next_below(out.size());
    std::rotate(out.begin(), out.begin() + static_cast<long>(shift),
                out.end());
  }
  return out;
}

/// Replace the nth occurrence (0-based) of `from` in `text`.
bool replace_nth(std::string& text, const std::string& from,
                 const std::string& to, std::size_t n) {
  std::size_t pos = 0;
  for (std::size_t i = 0;; ++i) {
    pos = text.find(from, pos);
    if (pos == std::string::npos) return false;
    if (i == n) {
      text.replace(pos, from.size(), to);
      return true;
    }
    pos += from.size();
  }
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

DefectOutcome replace_somewhere(vfs::Repo& repo, const std::string& path,
                                const std::string& from,
                                const std::string& to, Rng& rng,
                                const std::string& what) {
  auto content = repo.read(path);
  if (!content) return {};
  const std::size_t n = count_occurrences(*content, from);
  if (n == 0) return {};
  std::string text = *content;
  replace_nth(text, from, to, rng.next_below(n));
  repo.write(path, text);
  return {true, what + " in " + path};
}

// ------------------------------------------------------ per-kind logic --

DefectOutcome makefile_syntax(vfs::Repo& repo, Rng& rng) {
  if (repo.exists("Makefile")) {
    // The SWE-agent failure mode: a recipe TAB becomes spaces.
    return replace_somewhere(repo, "Makefile", "\t", "    ", rng,
                             "recipe TAB replaced with spaces");
  }
  if (repo.exists("CMakeLists.txt")) {
    auto out = replace_somewhere(repo, "CMakeLists.txt", ")\n", "\n", rng,
                                 "closing parenthesis dropped");
    return out;
  }
  return {};
}

DefectOutcome missing_build_target(vfs::Repo& repo, Rng& rng) {
  (void)rng;
  if (repo.exists("Makefile")) {
    // The link rule's target is renamed: `all` still asks for the old name.
    std::string text = repo.at("Makefile");
    const auto lines = support::split_lines(text);
    for (const auto& line : lines) {
      if (line.starts_with("all:")) {
        const auto deps = support::split_ws(line.substr(4));
        if (!deps.empty()) {
          const std::string victim = deps[0] + ":";
          if (replace_nth(text, "\n" + victim, "\n" + deps[0] + "_bin:",
                          0)) {
            repo.write("Makefile", text);
            return {true, "rule for '" + deps[0] + "' renamed away"};
          }
        }
      }
    }
    // Fallback: drop the default target line entirely.
    if (replace_nth(text, "all:", "notdefault:", 0)) {
      repo.write("Makefile", text);
      return {true, "default target 'all' renamed"};
    }
  }
  if (repo.exists("CMakeLists.txt")) {
    std::string text = repo.at("CMakeLists.txt");
    if (replace_nth(text, "add_executable", "# add_executable", 0)) {
      repo.write("CMakeLists.txt", text);
      return {true, "add_executable commented out"};
    }
  }
  return {};
}

DefectOutcome cmake_config(vfs::Repo& repo, Rng& rng) {
  if (!repo.exists("CMakeLists.txt")) return {};
  switch (rng.next_below(3)) {
    case 0: {
      auto out = replace_somewhere(repo, "CMakeLists.txt",
                                   "find_package(Kokkos",
                                   "find_package(kokkos", rng,
                                   "find_package case typo");
      if (out.applied) return out;
      break;
    }
    case 1: {
      auto out = replace_somewhere(repo, "CMakeLists.txt", "add_executable",
                                   "add_exectuable", rng,
                                   "misspelled add_executable");
      if (out.applied) return out;
      break;
    }
    default:
      break;
  }
  return replace_somewhere(repo, "CMakeLists.txt", "find_package(",
                           "find_package(No", rng,
                           "find_package of a nonexistent package");
}

DefectOutcome invalid_flag(vfs::Repo& repo, Rng& rng) {
  const std::string build =
      repo.exists("Makefile") ? "Makefile" : "CMakeLists.txt";
  if (!repo.exists(build)) return {};
  static const std::pair<const char*, const char*> kSwaps[] = {
      {"-fopenmp-targets=nvptx64-nvidia-cuda", "-fopenmp-targets=nvptx"},
      {"-fopenmp ", "-qopenmp "},
      {"-arch=sm_80", "-arch=sm80"},
      {"-O2", "-O9"},
  };
  const std::size_t start = rng.next_below(std::size(kSwaps));
  for (std::size_t i = 0; i < std::size(kSwaps); ++i) {
    const auto& [from, to] = kSwaps[(start + i) % std::size(kSwaps)];
    auto out = replace_somewhere(repo, build, from, to, rng,
                                 std::string("compiler flag '") + from +
                                     "' corrupted");
    if (out.applied) return out;
  }
  return {};
}

DefectOutcome missing_header(vfs::Repo& repo, Rng& rng) {
  for (const auto& path : source_paths(repo, rng)) {
    const auto facts = file_facts(repo, path);
    for (const auto& inc : facts->quoted_includes) {
      auto out = replace_somewhere(
          repo, path, "\"" + inc.target + "\"",
          "\"" + inc.target + ".orig\"", rng,
          "include of '" + inc.target + "' retargeted to a missing file");
      if (out.applied) return out;
    }
  }
  // No quoted includes (single-file apps): include a nonexistent header.
  for (const auto& path : source_paths(repo, rng)) {
    std::string text = repo.at(path);
    repo.write(path, "#include \"common.h\"\n" + text);
    return {true, "spurious include of missing 'common.h' in " + path};
  }
  return {};
}

DefectOutcome code_syntax(vfs::Repo& repo, Rng& rng) {
  for (const auto& path : source_paths(repo, rng)) {
    std::string text = repo.at(path);
    const std::size_t braces = count_occurrences(text, "}");
    if (braces == 0) continue;
    // Drop a closing brace somewhere in the middle of the file.
    replace_nth(text, "}", "", braces / 2);
    repo.write(path, text);
    return {true, "closing brace dropped in " + path};
  }
  return {};
}

DefectOutcome undeclared_id(vfs::Repo& repo, Rng& rng) {
  // Rename a function at its DEFINITION only: callers (often in another
  // file) still use the old name — the paper's cross-file-consistency
  // failure.
  for (const auto& path : source_paths(repo, rng)) {
    const std::string& text = repo.at(path);
    const auto facts = file_facts(repo, path);
    for (const auto& fn : facts->functions) {
      if (fn.name == "main") continue;
      // Only worthwhile if the name is used elsewhere too.
      std::size_t uses = 0;
      for (const auto& other : repo.paths()) {
        if (is_source_file(other)) {
          uses += count_occurrences(repo.at(other), fn.name);
        }
      }
      if (uses < 2) continue;
      // Replace the definition's occurrence: find "name(" at its line.
      std::string updated = text;
      const std::size_t defs = count_occurrences(updated, fn.name + "(");
      for (std::size_t n = 0; n < defs; ++n) {
        std::string candidate = updated;
        if (!replace_nth(candidate, fn.name + "(", fn.name + "_impl(", n)) {
          break;
        }
        repo.write(path, candidate);
        return {true, "function '" + fn.name +
                          "' renamed at its definition only (" + path + ")"};
      }
    }
  }
  // Fallback: corrupt one identifier use.
  for (const auto& path : source_paths(repo, rng)) {
    auto out = replace_somewhere(repo, path, "checksum", "check_sum", rng,
                                 "identifier renamed inconsistently");
    if (out.applied) return out;
  }
  return {};
}

DefectOutcome arg_mismatch(vfs::Repo& repo, Rng& rng) {
  // Drop the last argument of a multi-argument user call: favour calls of
  // repo-defined functions so the mismatch is against a known signature.
  std::vector<std::string> defined;
  for (const auto& path : repo.paths()) {
    if (!is_source_file(path)) continue;
    const auto facts = file_facts(repo, path);
    for (const auto& fn : facts->functions) {
      if (fn.name != "main") defined.push_back(fn.name);
    }
  }
  for (const auto& path : source_paths(repo, rng)) {
    std::string text = repo.at(path);
    for (const auto& fname : defined) {
      // Find a call "fname(" and delete the final ", arg" before ')'.
      std::size_t pos = text.find(fname + "(");
      while (pos != std::string::npos) {
        const std::size_t open = pos + fname.size();
        int depth = 0;
        std::size_t last_comma = std::string::npos;
        std::size_t close = std::string::npos;
        for (std::size_t i = open; i < text.size(); ++i) {
          if (text[i] == '(') ++depth;
          if (text[i] == ',' && depth == 1) last_comma = i;
          if (text[i] == ')') {
            --depth;
            if (depth == 0) {
              close = i;
              break;
            }
          }
        }
        if (close != std::string::npos &&
            last_comma != std::string::npos) {
          text.erase(last_comma, close - last_comma);
          repo.write(path, text);
          return {true, "last argument dropped from a call to '" + fname +
                            "' in " + path};
        }
        pos = text.find(fname + "(", pos + 1);
      }
    }
  }
  return {};
}

DefectOutcome omp_invalid(vfs::Repo& repo, Rng& rng) {
  static const std::pair<const char*, const char*> kSwaps[] = {
      {"parallel for", "parallel forx"},
      {"map(to:", "map(too:"},
      {"map(tofrom:", "map(tofro:"},
      {"teams distribute", "teams distrbute"},
  };
  const std::size_t start = rng.next_below(std::size(kSwaps));
  for (const auto& path : source_paths(repo, rng)) {
    if (!support::contains(repo.at(path), "#pragma omp")) continue;
    for (std::size_t i = 0; i < std::size(kSwaps); ++i) {
      const auto& [from, to] = kSwaps[(start + i) % std::size(kSwaps)];
      auto out = replace_somewhere(repo, path, from, to, rng,
                                   std::string("OpenMP directive '") + from +
                                       "' corrupted");
      if (out.applied) return out;
    }
  }
  return {};
}

DefectOutcome link_error(vfs::Repo& repo, Rng& rng) {
  // Delete a function definition whose name is used in another file,
  // keeping any prototype: undefined reference at link time.
  for (const auto& path : source_paths(repo, rng)) {
    const std::string ext = vfs::extension(path);
    if (ext == ".h" || ext == ".hpp" || ext == ".cuh") continue;
    const std::string& text = repo.at(path);
    const auto facts = file_facts(repo, path);
    for (const auto& fn : facts->functions) {
      if (fn.name == "main") continue;
      bool used_elsewhere = false;
      for (const auto& other : repo.paths()) {
        if (other != path && is_source_file(other) &&
            support::contains(repo.at(other), fn.name)) {
          used_elsewhere = true;
        }
      }
      if (!used_elsewhere) continue;
      const auto lines = support::split_lines(text);
      std::string updated;
      for (int ln = 1; ln <= static_cast<int>(lines.size()); ++ln) {
        if (ln >= fn.start_line && ln <= fn.end_line) continue;
        updated += lines[ln - 1];
        updated += '\n';
      }
      repo.write(path, updated);
      return {true, "definition of '" + fn.name + "' deleted from " + path};
    }
  }
  // Single-file fallback: drop an object from the Makefile link line.
  if (repo.exists("Makefile")) {
    auto out = replace_somewhere(repo, "Makefile", "main.o ", "", rng,
                                 "object dropped from the link line");
    if (out.applied) return out;
  }
  return {};
}

DefectOutcome semantic(vfs::Repo& repo, Rng& rng) {
  static const std::pair<const char*, const char*> kSwaps[] = {
      // The paper's Listing 4: `target` lost from the combined construct.
      {"#pragma omp target teams distribute parallel for",
       "#pragma omp teams distribute"},
      // Data flows the wrong way.
      {"map(from:", "map(to:"},
      {"map(tofrom:", "map(to:"},
      // Reduction forgotten: the sum never leaves the device.
      {" reduction(+:", " firstprivate("},
      // Kokkos: device results never copied back.
      {"Kokkos::deep_copy(m_", "// Kokkos::deep_copy(m_"},
      // Off-by-one in a guard.
      {"i < N - 1", "i < N - 2"},
  };
  const std::size_t start = rng.next_below(std::size(kSwaps));
  for (std::size_t i = 0; i < std::size(kSwaps); ++i) {
    const auto& [from, to] = kSwaps[(start + i) % std::size(kSwaps)];
    for (const auto& path : source_paths(repo, rng)) {
      auto out = replace_somewhere(repo, path, from, to, rng,
                                   std::string("semantic defect: '") + from +
                                       "' -> '" + to + "'");
      if (out.applied) return out;
    }
  }
  return {};
}

}  // namespace

std::shared_ptr<const FileFacts> file_facts(const vfs::Repo& repo,
                                            const std::string& path) {
  // Keyed on content alone, since both facts are pure functions of the
  // text: files with equal bytes share an entry whatever their path, and a
  // file an earlier defect step edited has a new hash, so it lexes fresh.
  // The bound keeps reference files (hit on every sample) and drops the
  // one-off edited ones. The compute never touches the ThreadPool while it
  // owns a flight (the deadlock rule in support/sharded_cache.hpp).
  static support::ShardedCache<std::uint64_t, std::shared_ptr<const FileFacts>>
      memo{1 << 10};
  const std::string& text = repo.at(path);
  return memo.get_or_compute(*repo.content_hash(path), [&] {
    const codeanal::LexResult lexed = codeanal::lex(text);
    auto facts = std::make_shared<FileFacts>();
    facts->functions = codeanal::find_functions(lexed.tokens);
    for (auto& inc : codeanal::scan_includes(lexed.tokens)) {
      if (!inc.angled) facts->quoted_includes.push_back(std::move(inc));
    }
    return std::shared_ptr<const FileFacts>(std::move(facts));
  });
}

const char* defect_name(DefectKind k) {
  switch (k) {
    case DefectKind::MakefileSyntax: return "CMake or Makefile Syntax Error";
    case DefectKind::MissingBuildTarget:
      return "Makefile Missing Build Target";
    case DefectKind::CMakeConfig: return "CMake Config Error";
    case DefectKind::InvalidFlag: return "Invalid Compiler Flag";
    case DefectKind::MissingHeader: return "Missing Header File";
    case DefectKind::CodeSyntax: return "Code Syntax Error";
    case DefectKind::UndeclaredId: return "Undeclared Identifier";
    case DefectKind::ArgMismatch: return "Function Argument or Type Mismatch";
    case DefectKind::OmpInvalid: return "OpenMP Invalid Directive";
    case DefectKind::LinkError: return "Linker Error";
    case DefectKind::Semantic: return "Semantic (wrong answer)";
  }
  return "?";
}

bool is_build_file_defect(DefectKind k) {
  return k == DefectKind::MakefileSyntax ||
         k == DefectKind::MissingBuildTarget ||
         k == DefectKind::CMakeConfig || k == DefectKind::InvalidFlag;
}

const std::vector<DefectKind>& all_defect_kinds() {
  static const std::vector<DefectKind> kKinds = {
      DefectKind::MakefileSyntax, DefectKind::MissingBuildTarget,
      DefectKind::CMakeConfig,    DefectKind::InvalidFlag,
      DefectKind::MissingHeader,  DefectKind::CodeSyntax,
      DefectKind::UndeclaredId,   DefectKind::ArgMismatch,
      DefectKind::OmpInvalid,     DefectKind::LinkError,
      DefectKind::Semantic};
  return kKinds;
}

DefectOutcome inject_defect(vfs::Repo& repo, DefectKind kind, Rng& rng) {
  switch (kind) {
    case DefectKind::MakefileSyntax: return makefile_syntax(repo, rng);
    case DefectKind::MissingBuildTarget:
      return missing_build_target(repo, rng);
    case DefectKind::CMakeConfig: return cmake_config(repo, rng);
    case DefectKind::InvalidFlag: return invalid_flag(repo, rng);
    case DefectKind::MissingHeader: return missing_header(repo, rng);
    case DefectKind::CodeSyntax: return code_syntax(repo, rng);
    case DefectKind::UndeclaredId: return undeclared_id(repo, rng);
    case DefectKind::ArgMismatch: return arg_mismatch(repo, rng);
    case DefectKind::OmpInvalid: return omp_invalid(repo, rng);
    case DefectKind::LinkError: return link_error(repo, rng);
    case DefectKind::Semantic: return semantic(repo, rng);
  }
  return {};
}

}  // namespace pareval::xlate
