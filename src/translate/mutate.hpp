#pragma once
// Defect injection: the error taxonomy of the paper's Figure 3, one
// mutator per category. Each mutator edits a *correct* translated
// repository into one exhibiting a specific, genuinely-detectable failure
// (the build/run pipeline finds it; nothing is scored by fiat). The
// simulated-LLM layer picks categories with per-(LLM, app) weights
// calibrated from Figure 3.

#include <memory>
#include <string>
#include <vector>

#include "codeanal/functions.hpp"
#include "codeanal/includes.hpp"
#include "support/rng.hpp"
#include "vfs/repo.hpp"

namespace pareval::xlate {

enum class DefectKind {
  MakefileSyntax,      // tab->spaces, unbalanced CMake parens
  MissingBuildTarget,  // executable rule renamed away
  CMakeConfig,         // find_package case typo / misspelled command
  InvalidFlag,         // -fopenmp -> -qopenmp, bad offload triple, sm typo
  MissingHeader,       // include rewritten to a nonexistent header
  CodeSyntax,          // dropped brace/semicolon
  UndeclaredId,        // function renamed at the definition only
  ArgMismatch,         // argument dropped from a cross-file call
  OmpInvalid,          // directive misspelled / bad map type
  LinkError,           // function definition deleted (prototype kept)
  Semantic,            // builds, runs, wrong answer: lost `target`,
                       // lost `parallel for`, wrong map direction,
                       // dropped reduction, dropped copy-back
};

const char* defect_name(DefectKind k);  // Figure 3 row label

/// True when the defect lives in the build file (so the paper's
/// "Code-only" mode, which swaps in a ground-truth build file, hides it).
bool is_build_file_defect(DefectKind k);

struct DefectOutcome {
  bool applied = false;
  std::string description;  // what was changed, for logs/debugging
};

/// Apply one defect of the given kind to the repository. Site selection is
/// driven by `rng` so repeated samples hit different places. Returns
/// applied=false when the repo has no viable site for this kind.
DefectOutcome inject_defect(vfs::Repo& repo, DefectKind kind,
                            support::Rng& rng);

/// What the lexing mutators read of one source file, all taken from a
/// single lex of it: its function definitions and its quoted includes.
struct FileFacts {
  std::vector<codeanal::FunctionSpan> functions;
  std::vector<codeanal::IncludeRef> quoted_includes;
};

/// The facts of `repo`'s file at `path` (throws std::out_of_range when
/// absent), served from a process-wide LRU memo keyed on the file's
/// content hash: a reference translation lexes once, not once per sample.
/// Keep the returned pointer in a local for as long as you read the facts:
/// the memo may evict the entry at any time, and a range-for over
/// `file_facts(...)->functions` would drop the only other owner first.
std::shared_ptr<const FileFacts> file_facts(const vfs::Repo& repo,
                                            const std::string& path);

/// All kinds, in Figure 3 row order (Semantic last; it is not a build
/// error category in the paper's figure).
const std::vector<DefectKind>& all_defect_kinds();

}  // namespace pareval::xlate
