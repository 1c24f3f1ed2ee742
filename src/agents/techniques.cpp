#include "agents/techniques.hpp"

#include <bit>
#include <cstdint>
#include <memory>

#include "buildsim/tucache.hpp"
#include "codeanal/functions.hpp"
#include "codeanal/includes.hpp"
#include "support/sharded_cache.hpp"
#include "support/strings.hpp"
#include "text/tokens.hpp"
#include "translate/mutate.hpp"
#include "translate/transpile.hpp"

namespace pareval::agents {

using apps::AppSpec;
using llm::LlmProfile;
using llm::Pair;
using llm::Technique;
using support::Rng;

long long total_tokens(const TranslationResult& r) {
  return r.input_tokens + r.output_tokens;
}

namespace {

std::string model_pair_phrase(const Pair& pair) {
  return std::string(apps::model_name(pair.from)) + " execution model to the " +
         apps::model_name(pair.to) + " execution model";
}

bool is_build_file(const std::string& path) {
  const std::string base = vfs::basename(path);
  return base == "Makefile" || base == "CMakeLists.txt";
}

bool file_has_main(const std::string& content) {
  return support::contains(content, "int main(");
}

/// Apply the calibrated defect model to a correct translation.
void inject_calibrated_defects(const AppSpec& app, const LlmProfile& profile,
                               const llm::CellScores& cell, vfs::Repo& repo,
                               Rng& rng, std::vector<std::string>& defects) {
  auto pick_and_apply = [&](bool build_file) {
    std::vector<double> weights =
        llm::defect_weights(profile.name, app.name, build_file);
    // Attempts cover inapplicable mutators (e.g. a CMake-error weight from
    // Figure 3 aggregates over pairs, but this pair builds with make):
    // once the weighted categories are exhausted, fall back to a uniform
    // pick over the remaining categories of the same class.
    bool tried_uniform = false;
    const auto& kinds = xlate::all_defect_kinds();
    for (std::size_t attempt = 0; attempt < 2 * kinds.size(); ++attempt) {
      const std::size_t idx = rng.weighted_index(weights);
      if (idx >= weights.size()) {
        if (tried_uniform) break;
        tried_uniform = true;
        for (std::size_t i = 0; i < kinds.size(); ++i) {
          weights[i] = kinds[i] != xlate::DefectKind::Semantic &&
                               xlate::is_build_file_defect(kinds[i]) ==
                                   build_file
                           ? 1.0
                           : 0.0;
        }
        continue;
      }
      const auto kind = kinds[idx];
      const auto outcome = xlate::inject_defect(repo, kind, rng);
      if (outcome.applied) {
        defects.push_back(std::string(xlate::defect_name(kind)) + ": " +
                          outcome.description);
        return;
      }
      weights[idx] = 0.0;  // no site: resample another category
    }
  };

  // Build-file quality: P(correct build file) = overall_build/code_build.
  const double p_build_ok =
      cell.code_build > 0
          ? std::min(1.0, cell.overall_build / cell.code_build)
          : 0.25;
  if (!rng.bernoulli(p_build_ok)) pick_and_apply(/*build_file=*/true);

  // Source quality: P(source compiles) = code-only build@1.
  if (!rng.bernoulli(cell.code_build)) {
    pick_and_apply(/*build_file=*/false);
    return;  // a source build defect dominates any semantic one
  }
  // Semantic quality given it compiles: code_pass / code_build.
  const double p_sem_ok =
      cell.code_build > 0 ? std::min(1.0, cell.code_pass / cell.code_build)
                          : 0.0;
  if (!rng.bernoulli(p_sem_ok)) {
    const auto outcome =
        xlate::inject_defect(repo, xlate::DefectKind::Semantic, rng);
    if (outcome.applied) {
      defects.push_back(std::string("Semantic: ") + outcome.description);
    }
  }
}

// ------------------------------------------------------- token models --

TokenCounts nonagentic_tokens(const AppSpec& app, const vfs::Repo& src,
                              const vfs::Repo& translated,
                              const LlmProfile& profile, const Pair& pair) {
  long long in = 0, out = 0;
  for (const auto& f : translated.files()) {
    const std::string prompt =
        build_nonagentic_prompt(app, src, f.path, pair);
    in += text::approx_tokens(prompt);
    out += static_cast<long long>(
        static_cast<double>(text::approx_tokens(f.content)) *
        profile.output_multiplier);
  }
  return {in, out};
}

TokenCounts topdown_tokens(const AppSpec& app, const vfs::Repo& src,
                           const vfs::Repo& translated,
                           const LlmProfile& profile, const Pair& pair) {
  long long in = 0, out = 0;
  // Dependency agent: clang include scan is free; the LLM fallback reads
  // the repo structure once for non-C files (build system, README).
  long long repo_tokens = 0;
  for (const auto& f : src.files()) {
    repo_tokens += text::approx_tokens(f.content);
  }
  in += repo_tokens / 8;

  const auto order = codeanal::translation_order(src);
  std::vector<std::string> summaries;
  for (const auto& path : order) {
    const auto content = src.read(path);
    if (!content) continue;
    // Chunk agent: function-level splits when a file exceeds the window.
    const auto chunks = codeanal::split_into_chunks(
        *content, static_cast<std::size_t>(profile.context_tokens));
    for (const auto& chunk : chunks) {
      std::string prompt = build_topdown_prompt(app, chunk.text, summaries,
                                                pair);
      in += text::approx_tokens(prompt) +
            static_cast<long long>(profile.topdown_context_fraction *
                                   static_cast<double>(repo_tokens));
      out += static_cast<long long>(
          static_cast<double>(text::approx_tokens(chunk.text)) *
          profile.output_multiplier);
    }
    // Context agent: a change summary for dependents.
    summaries.push_back("file " + path + " translated");
    out += 40 * static_cast<long long>(profile.output_multiplier);
  }
  // Translated build file is generated too.
  for (const auto& f : translated.files()) {
    if (is_build_file(f.path)) {
      out += static_cast<long long>(
          static_cast<double>(text::approx_tokens(f.content)) *
          profile.output_multiplier);
    }
  }
  return {in, out};
}

TokenCounts swe_tokens(const AppSpec& app, const vfs::Repo& src,
                       const vfs::Repo& translated, const LlmProfile& profile,
                       const Pair& pair) {
  long long in = text::approx_tokens(build_swe_issue(app, pair));
  long long out = 0;
  // SWE-agent's closed loop: strategy, file views, edits. Roughly one
  // round per file plus a planning round.
  long long repo_tokens = 0;
  for (const auto& f : src.files()) {
    repo_tokens += text::approx_tokens(f.content);
  }
  in += repo_tokens;  // initial exploration
  for (const auto& f : translated.files()) {
    in += repo_tokens / 4;  // localized views per edit round
    out += static_cast<long long>(
        static_cast<double>(text::approx_tokens(f.content)) *
        profile.output_multiplier / 2.0);  // diff-style edits
  }
  return {in, out};
}

// ------------------------------------------------------------ cell memo --

/// The sample-independent part of one cell: the reference translation and
/// its token counts. Samples of a cell differ only in injected defects.
struct CellEntry {
  std::shared_ptr<const vfs::Repo> repo;
  TokenCounts tokens;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return support::SplitMix64(h ^ v).next();
}

std::uint64_t fold(std::uint64_t h, const std::string& s) {
  return fold(h, support::stable_hash(s));
}

std::uint64_t fold(std::uint64_t h, double v) {
  return fold(h, std::bit_cast<std::uint64_t>(v));
}

/// Key of the reference translation: everything transpile_repo reads (the
/// source repo's content, the app name that names the executable, the
/// extent hints, and the pair).
std::uint64_t translation_key(const AppSpec& app, const vfs::Repo& src,
                              const Pair& pair) {
  std::uint64_t h = fold(buildsim::repo_content_hash(src), app.name);
  h = fold(h, static_cast<std::uint64_t>(pair.from));
  h = fold(h, static_cast<std::uint64_t>(pair.to));
  for (const auto& [param, extent] : app.array_extents) {
    h = fold(fold(h, param), extent);
  }
  return h;
}

/// Key of a cell's entry: the translation key plus everything the token
/// model reads on top of it (prompt addenda, technique, profile knobs).
std::uint64_t cell_key(std::uint64_t translation, const AppSpec& app,
                       Technique technique, const LlmProfile& profile) {
  std::uint64_t h = fold(translation, static_cast<std::uint64_t>(technique));
  h = fold(fold(fold(h, app.cli_spec), app.build_spec_make),
           app.build_spec_cmake);
  h = fold(h, profile.output_multiplier);
  h = fold(h, static_cast<std::uint64_t>(profile.context_tokens));
  return fold(h, profile.topdown_context_fraction);
}

/// Process-wide memo of cell entries, keyed on content rather than names
/// so a re-registered app or profile gets a fresh entry. Translations are
/// shared across the cells of one (app, pair). Both tables are
/// single-flight, so concurrent cold misses transpile a translation once.
///
/// The paper spec generates 143 cells over 15 (app, pair) translations
/// (ci_subset: 52 over 8). The bounds give each of the 16 shards room for
/// 16 translations and 256 cells, so even if every key landed in one
/// shard, these specs would evict nothing.
/// Neither compute touches the ThreadPool while it owns a flight (the
/// deadlock rule in support/sharded_cache.hpp); a cell's compute claims
/// only translation flights below it.
std::shared_ptr<const CellEntry> cell_entry(const AppSpec& app,
                                            Technique technique,
                                            const LlmProfile& profile,
                                            const Pair& pair) {
  static support::ShardedCache<std::uint64_t,
                               std::shared_ptr<const vfs::Repo>>
      translations{1 << 8};
  static support::ShardedCache<std::uint64_t, std::shared_ptr<const CellEntry>>
      cells{1 << 12};

  const vfs::Repo& src = app.repos.at(pair.from);
  const std::uint64_t xkey = translation_key(app, src, pair);
  return cells.get_or_compute(cell_key(xkey, app, technique, profile), [&] {
    auto translated = translations.get_or_compute(xkey, [&] {
      xlate::TranspileLog log;
      return std::make_shared<const vfs::Repo>(
          xlate::transpile_repo(app, pair.from, pair.to, log));
    });
    const TokenCounts tokens =
        token_counts(app, src, *translated, profile, pair, technique);
    return std::make_shared<const CellEntry>(
        CellEntry{std::move(translated), tokens});
  });
}

}  // namespace

TokenCounts token_counts(const AppSpec& app, const vfs::Repo& src,
                         const vfs::Repo& translated,
                         const LlmProfile& profile, const Pair& pair,
                         Technique technique) {
  switch (technique) {
    case Technique::NonAgentic:
      return nonagentic_tokens(app, src, translated, profile, pair);
    case Technique::TopDown:
      return topdown_tokens(app, src, translated, profile, pair);
    case Technique::SweAgent:
      return swe_tokens(app, src, translated, profile, pair);
  }
  return {};
}

std::string build_nonagentic_prompt(const AppSpec& app,
                                    const vfs::Repo& repo,
                                    const std::string& target_file,
                                    const Pair& pair) {
  // Listing 1 of the paper.
  std::string p;
  p += "You are a helpful coding assistant. You are helping a software "
       "developer translate a codebase from the " +
       std::string(apps::model_name(pair.from)) + " execution model to the " +
       apps::model_name(pair.to) + " execution model. Writing correct, fast "
       "code is important, so take some time to think before responding to "
       "any query, and ensure that the code you create is enclosed in "
       "triple backticks (```), as used in the query below.\n\n";
  p += "Below is a codebase written in the " +
       std::string(apps::model_name(pair.from)) + " execution model. We are "
       "translating it to the " + apps::model_name(pair.to) +
       " execution model. Here is the file tree of the entire repository:\n\n";
  p += repo.render_tree();
  p += "\nHere is the code for each file in the codebase:\n\n";
  for (const auto& f : repo.files()) {
    p += f.path + "\n```\n" + f.content + "```\n\n";
  }
  p += "Translate the " + target_file + " file to the " +
       apps::model_name(pair.to) + " execution model. Output the translated "
       "files in one code block. Assume .cpp filenames whenever referring "
       "to other files as this will be a C++ code.\n";
  // Addenda (§3.1): CLI contract for main files, build contract for build
  // system files.
  const auto original = repo.read(target_file);
  if (is_build_file(target_file)) {
    p += "\nBuild system requirements: " +
         (pair.to == apps::Model::Kokkos ? app.build_spec_cmake
                                         : app.build_spec_make) +
         "\n";
  } else if (original && file_has_main(*original)) {
    p += "\nCommand line interface requirements: " + app.cli_spec + "\n";
  }
  return p;
}

std::string build_topdown_prompt(const AppSpec& app, const std::string& chunk,
                                 const std::vector<std::string>& summaries,
                                 const Pair& pair) {
  std::string p = "You are translating the application " + app.name +
                  " from the " + model_pair_phrase(pair) +
                  ".\nChanges already made to dependencies:\n";
  for (const auto& s : summaries) p += "- " + s + "\n";
  p += "\nTranslate this code chunk:\n```\n" + chunk + "```\n";
  return p;
}

std::string build_swe_issue(const AppSpec& app, const Pair& pair) {
  return "# Issue: port " + app.name + " to " +
         apps::model_name(pair.to) + "\n\nThe repository currently uses "
         "the " + std::string(apps::model_name(pair.from)) + " execution "
         "model. Translate the entire codebase (sources, headers and build "
         "system) to the " + apps::model_name(pair.to) + " execution "
         "model. " + app.cli_spec + "\n";
}

TranslationResult run_technique(const AppSpec& app, Technique technique,
                                const LlmProfile& profile, const Pair& pair,
                                Rng& rng) {
  return run_technique(
      app, technique, profile, pair, rng,
      llm::calibration_lookup(profile.name, technique, pair, app.name),
      llm::absence_reason(profile.name, technique, pair, app.name));
}

TranslationResult run_technique(const AppSpec& app, Technique technique,
                                const LlmProfile& profile, const Pair& pair,
                                Rng& rng,
                                const std::optional<llm::CellScores>& scores,
                                const std::string& absence_reason) {
  TranslationResult result;
  const auto& cell = scores;
  if (!cell) {
    result.abort_reason = absence_reason;
    return result;
  }

  // The "model capability" (a correct reference translation) and the
  // token counts come from the cell's memo entry; the repo is copied
  // outside the memo's lock. Only the steps below depend on the sample.
  const std::shared_ptr<const CellEntry> entry =
      cell_entry(app, technique, profile, pair);
  result.repo = *entry->repo;
  result.input_tokens = entry->tokens.input;
  result.output_tokens = entry->tokens.output;

  if (technique == Technique::SweAgent) {
    // SWE-agent needs a git repository (§3.3).
    result.repo.write(".git/HEAD", "ref: refs/heads/main\n");
    // Its editor replaces tabs with spaces, breaking Makefiles.
    if (result.repo.exists("Makefile")) {
      result.repo.write("Makefile",
                        support::replace_all(result.repo.at("Makefile"),
                                             "\t", "    "));
      result.defects.push_back(
          "SWE-agent: Makefile tabs replaced with spaces");
    }
  }

  inject_calibrated_defects(app, profile, *cell, result.repo, rng,
                            result.defects);
  result.generated = true;
  return result;
}

}  // namespace pareval::agents
