#pragma once
// eval::Suite — first-class registries for everything the benchmark can
// sweep over: applications, LLM profiles, techniques, and translation
// pairs, plus the calibration overrides that tell the simulated-LLM layer
// how capable a (llm, technique, pair, app) cell is.
//
// Suite::paper() reproduces today's fixed sets (apps::all_apps(),
// llm::all_profiles(), the three techniques, llm::all_pairs(), the paper's
// calibration tables) so the default sweep is bit-identical to the
// pre-registry harness. A user suite starts from paper() — or empty — and
// registers its own entries; examples/custom_suite.cpp registers a new
// app, a custom LLM profile, and a reverse OMP->CUDA pair.
//
// Registration order is the canonical enumeration order: sweep_cells walks
// the spec-selected pairs outermost, then per pair apps, techniques, and
// profiles in the order they were added, so a (suite, spec) fully
// determines cell indices for the shard planner.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "llm/calibration.hpp"
#include "llm/profiles.hpp"

namespace pareval::eval {

class Suite {
 public:
  /// An empty suite: no apps, profiles, techniques, or pairs registered;
  /// calibration falls back to the paper tables.
  Suite() = default;

  /// The paper's fixed benchmark: six apps, five LLM profiles, three
  /// techniques, three pairs, Figure 2/3 calibration. Copy it to extend.
  static const Suite& paper();

  // --- registration (returns *this for chaining) ---------------------------
  // Re-registering an existing name (or pair/technique) replaces the
  // entry in its canonical position rather than shadowing it, so "copy
  // paper(), re-register a tweaked profile" overrides cleanly and cell
  // coordinates stay unique.

  /// Register an externally owned application (e.g. one of the embedded
  /// paper apps). The pointer must outlive the suite.
  Suite& add_app(const apps::AppSpec* app);
  /// Register a copy of `app` owned by the suite (survives suite copies).
  Suite& add_app(apps::AppSpec app);
  /// Register a copy of `profile` owned by the suite.
  Suite& add_profile(const llm::LlmProfile& profile);
  Suite& add_technique(llm::Technique technique);
  Suite& add_pair(const llm::Pair& pair);

  /// Pin one exact (llm, technique, pair, app) cell's scores. Checked
  /// before the profile-wide default and the fallback.
  Suite& set_cell_scores(const std::string& llm, llm::Technique technique,
                         const llm::Pair& pair, const std::string& app,
                         const llm::CellScores& scores);
  /// Default scores for *every* cell of one profile — the one-liner that
  /// makes a custom LLM generate instead of aborting on missing paper
  /// calibration. Checked after exact cells, before the fallback.
  Suite& set_profile_scores(const std::string& llm,
                            const llm::CellScores& scores);

  // --- registries, in canonical (registration) order ------------------------

  const std::vector<const apps::AppSpec*>& apps() const { return apps_; }
  const std::vector<const llm::LlmProfile*>& profiles() const {
    return profiles_;
  }
  const std::vector<llm::Technique>& techniques() const {
    return techniques_;
  }
  const std::vector<llm::Pair>& pairs() const { return pairs_; }

  const apps::AppSpec* find_app(const std::string& name) const;
  const llm::LlmProfile* find_profile(const std::string& name) const;
  bool has_pair(const llm::Pair& pair) const;
  bool has_technique(llm::Technique technique) const;

  // --- calibration ----------------------------------------------------------

  /// A cell's capability scores: an exact override, else the profile-wide
  /// default, else the paper's transcribed Figure 2 tables
  /// (llm::calibration_lookup). nullopt marks the cell "not run" (the
  /// paper's empty heat-map cells).
  std::optional<llm::CellScores> calibration(const std::string& llm,
                                             llm::Technique technique,
                                             const llm::Pair& pair,
                                             const std::string& app) const;
  /// Human-readable reason a nullopt cell is absent (harness logs).
  std::string absence_reason(const std::string& llm,
                             llm::Technique technique, const llm::Pair& pair,
                             const std::string& app) const;

  /// Stable digest of the suite's registries (app names, profile names,
  /// technique keys, pair keys, in registration order). Shard files embed
  /// it: a spec's bare cell indices are only meaningful against the suite
  /// that enumerated them, so merge_shards refuses shards whose
  /// fingerprint disagrees with the merging suite's.
  std::uint64_t fingerprint() const;

 private:
  static std::string cell_key(const std::string& llm,
                              llm::Technique technique, const llm::Pair& pair,
                              const std::string& app);

  std::vector<const apps::AppSpec*> apps_;
  std::vector<const llm::LlmProfile*> profiles_;
  std::vector<llm::Technique> techniques_;
  std::vector<llm::Pair> pairs_;
  // Keep-alive for registered-by-value entries. shared_ptr (not
  // unique_ptr) so copying a suite keeps the raw views above valid: the
  // copy shares ownership of the same immutable objects.
  std::vector<std::shared_ptr<const apps::AppSpec>> owned_apps_;
  std::vector<std::shared_ptr<const llm::LlmProfile>> owned_profiles_;

  std::map<std::string, llm::CellScores> cell_overrides_;
  std::map<std::string, llm::CellScores> profile_overrides_;
};

}  // namespace pareval::eval
