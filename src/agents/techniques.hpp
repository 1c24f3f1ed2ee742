#pragma once
// The three repo-level translation techniques the paper benchmarks (§3):
// non-agentic (whole-repo prompt, file by file), top-down agentic
// (dependency / chunk / context / translation agents, Fig. 1), and a
// SWE-agent adapter. Each drives the simulated LLM: real prompts are
// assembled for token accounting, the reference transpiler provides the
// "model capability", and the calibrated defect injector degrades the
// output to the quality the paper measured for that LLM.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "llm/calibration.hpp"
#include "llm/profiles.hpp"
#include "support/rng.hpp"
#include "vfs/repo.hpp"

namespace pareval::agents {

struct TranslationResult {
  bool generated = false;     // false: aborted (the paper's empty cells)
  std::string abort_reason;
  vfs::Repo repo;             // translated repo, defects included
  long long input_tokens = 0;
  long long output_tokens = 0;
  std::vector<std::string> defects;  // injected-defect descriptions
};

/// Total tokens (input + output) of one translation attempt.
long long total_tokens(const TranslationResult& r);

/// Inference tokens one technique spends on one task.
struct TokenCounts {
  long long input = 0;
  long long output = 0;
  bool operator==(const TokenCounts&) const = default;
};

/// The token model: the tokens `technique` run by `profile` spends to
/// translate `src` into `translated` (the prompts it assembles, and the
/// answers scaled by the profile's output multiplier). A pure function of
/// its arguments; run_technique computes it once per cell and reuses it
/// for every sample.
TokenCounts token_counts(const apps::AppSpec& app, const vfs::Repo& src,
                         const vfs::Repo& translated,
                         const llm::LlmProfile& profile,
                         const llm::Pair& pair, llm::Technique technique);

/// Run one technique on one task with one simulated LLM. `rng` drives the
/// defect sampling; distinct samples use split generators. Resolves the
/// cell's capability scores through the paper's calibration tables.
/// The reference translation and the token counts are memoized per cell,
/// keyed on the content they read (source repo, prompt addenda, extent
/// hints, profile knobs), so re-registering an edited app or profile under
/// the same name never reuses a stale entry. Safe to call concurrently.
TranslationResult run_technique(const apps::AppSpec& app,
                                llm::Technique technique,
                                const llm::LlmProfile& profile,
                                const llm::Pair& pair, support::Rng& rng);

/// run_technique with pre-resolved calibration, for suites that register
/// their own LLMs/pairs/apps (eval::Suite injects its calibration hook
/// here). nullopt `scores` aborts the cell with `absence_reason`.
TranslationResult run_technique(const apps::AppSpec& app,
                                llm::Technique technique,
                                const llm::LlmProfile& profile,
                                const llm::Pair& pair, support::Rng& rng,
                                const std::optional<llm::CellScores>& scores,
                                const std::string& absence_reason);

/// The content key of one cell's memo entry: `translation` covers
/// everything the reference translation reads (source repo, app name,
/// extent hints, pair), and `cell` adds everything the token model reads
/// on top of it (prompt addenda, technique, profile knobs).
struct CellMemoKey {
  std::uint64_t translation = 0;
  std::uint64_t cell = 0;
};

/// The part of a cell memo key that depends only on (app, pair): the
/// translation key, with `cell` holding the prompt addenda folded on it.
/// A sweep computes it once per (app, pair), not once per cell.
CellMemoKey app_memo_key(const apps::AppSpec& app, const llm::Pair& pair);

/// `app_key` (app_memo_key of the cell's app and pair) completed with the
/// cell's technique and profile knobs.
CellMemoKey cell_memo_key(CellMemoKey app_key, llm::Technique technique,
                          const llm::LlmProfile& profile);

/// run_technique with the cell's memo key resolved too, for sweeps that
/// run many samples of one cell: `key` must be cell_memo_key of the same
/// app, pair, technique and profile, resolved after the app and profile
/// were last changed.
TranslationResult run_technique(const apps::AppSpec& app,
                                llm::Technique technique,
                                const llm::LlmProfile& profile,
                                const llm::Pair& pair, support::Rng& rng,
                                const std::optional<llm::CellScores>& scores,
                                const std::string& absence_reason,
                                const CellMemoKey& key);

// ---- prompt builders (exposed for tests and token-economy analysis) ----

/// The paper's Listing 1: system prompt + file tree + all files + the
/// translate instruction (+ CLI/build addenda for main/build files).
std::string build_nonagentic_prompt(const apps::AppSpec& app,
                                    const vfs::Repo& repo,
                                    const std::string& target_file,
                                    const llm::Pair& pair);

/// Top-down translation prompt for one chunk with context summaries.
std::string build_topdown_prompt(const apps::AppSpec& app,
                                 const std::string& chunk,
                                 const std::vector<std::string>& summaries,
                                 const llm::Pair& pair);

/// The issue text handed to SWE-agent (§3.3).
std::string build_swe_issue(const apps::AppSpec& app, const llm::Pair& pair);

}  // namespace pareval::agents
