#include "eval/suite.hpp"

#include "support/rng.hpp"

namespace pareval::eval {

const Suite& Suite::paper() {
  static const Suite kPaper = [] {
    Suite s;
    for (const apps::AppSpec* app : apps::all_apps()) s.add_app(app);
    for (const llm::LlmProfile& profile : llm::all_profiles()) {
      s.add_profile(profile);
    }
    for (const auto technique :
         {llm::Technique::NonAgentic, llm::Technique::TopDown,
          llm::Technique::SweAgent}) {
      s.add_technique(technique);
    }
    for (const llm::Pair& pair : llm::all_pairs()) s.add_pair(pair);
    return s;
  }();
  return kPaper;
}

namespace {

/// Registering a name that already exists replaces the existing entry in
/// place (same canonical position) instead of shadowing it — "copy
/// paper(), re-register a tweaked profile" does what it reads as, and the
/// enumeration can never emit two cells with identical coordinates (which
/// would share one RNG stream and confuse find_task-based reports).
template <class Ptr>
bool replace_by_name(std::vector<Ptr>& list, const std::string& name,
                     Ptr entry) {
  for (Ptr& existing : list) {
    if (existing->name == name) {
      existing = entry;
      return true;
    }
  }
  return false;
}

}  // namespace

Suite& Suite::add_app(const apps::AppSpec* app) {
  if (!replace_by_name(apps_, app->name, app)) apps_.push_back(app);
  return *this;
}

Suite& Suite::add_app(apps::AppSpec app) {
  owned_apps_.push_back(
      std::make_shared<const apps::AppSpec>(std::move(app)));
  return add_app(owned_apps_.back().get());
}

Suite& Suite::add_profile(const llm::LlmProfile& profile) {
  owned_profiles_.push_back(
      std::make_shared<const llm::LlmProfile>(profile));
  const llm::LlmProfile* entry = owned_profiles_.back().get();
  if (!replace_by_name(profiles_, entry->name, entry)) {
    profiles_.push_back(entry);
  }
  return *this;
}

Suite& Suite::add_technique(llm::Technique technique) {
  if (!has_technique(technique)) techniques_.push_back(technique);
  return *this;
}

Suite& Suite::add_pair(const llm::Pair& pair) {
  if (!has_pair(pair)) pairs_.push_back(pair);
  return *this;
}

Suite& Suite::set_cell_scores(const std::string& llm,
                              llm::Technique technique,
                              const llm::Pair& pair, const std::string& app,
                              const llm::CellScores& scores) {
  cell_overrides_[cell_key(llm, technique, pair, app)] = scores;
  return *this;
}

Suite& Suite::set_profile_scores(const std::string& llm,
                                 const llm::CellScores& scores) {
  profile_overrides_[llm] = scores;
  return *this;
}

const apps::AppSpec* Suite::find_app(const std::string& name) const {
  for (const apps::AppSpec* app : apps_) {
    if (app->name == name) return app;
  }
  return nullptr;
}

const llm::LlmProfile* Suite::find_profile(const std::string& name) const {
  for (const llm::LlmProfile* profile : profiles_) {
    if (profile->name == name) return profile;
  }
  return nullptr;
}

bool Suite::has_pair(const llm::Pair& pair) const {
  for (const llm::Pair& p : pairs_) {
    if (p == pair) return true;
  }
  return false;
}

bool Suite::has_technique(llm::Technique technique) const {
  for (const llm::Technique t : techniques_) {
    if (t == technique) return true;
  }
  return false;
}

std::optional<llm::CellScores> Suite::calibration(
    const std::string& llm, llm::Technique technique, const llm::Pair& pair,
    const std::string& app) const {
  if (!cell_overrides_.empty()) {  // skip the key build when none exist
    const auto exact =
        cell_overrides_.find(cell_key(llm, technique, pair, app));
    if (exact != cell_overrides_.end()) return exact->second;
  }
  const auto wide = profile_overrides_.find(llm);
  if (wide != profile_overrides_.end()) return wide->second;
  return llm::calibration_lookup(llm, technique, pair, app);
}

std::string Suite::absence_reason(const std::string& llm,
                                  llm::Technique technique,
                                  const llm::Pair& pair,
                                  const std::string& app) const {
  return llm::absence_reason(llm, technique, pair, app);
}

std::string Suite::cell_key(const std::string& llm, llm::Technique technique,
                            const llm::Pair& pair, const std::string& app) {
  return llm + "|" + llm::technique_key(technique) + "|" +
         llm::pair_key(pair) + "|" + app;
}

std::uint64_t Suite::fingerprint() const {
  std::uint64_t h = support::stable_hash(std::string("pareval-suite-v1"));
  auto fold = [&h](const std::string& s) {
    h = support::SplitMix64(h ^ support::stable_hash(s)).next();
  };
  for (const apps::AppSpec* app : apps_) fold(app->name);
  fold("|");  // section separators: registry moves cannot alias
  for (const llm::LlmProfile* profile : profiles_) fold(profile->name);
  fold("|");
  for (const llm::Technique t : techniques_) fold(llm::technique_key(t));
  fold("|");
  for (const llm::Pair& pair : pairs_) fold(llm::pair_key(pair));
  return h;
}

}  // namespace pareval::eval
