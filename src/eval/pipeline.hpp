#pragma once
// The staged scoring pipeline (§6.1): scoring a generated repository is an
// explicit Build -> Execute -> Validate ladder instead of one opaque call.
// Each stage yields a structured StageOutcome — stage id, verdict, a
// machine-readable detail code, and that stage's slice of the legacy log
// transcript — so the §6.3 error-classification pipeline can consume the
// provenance the harness already derived (buildsim's categorized
// diagnostics, the validator's mismatch-vs-device distinction) instead of
// keyword-grepping a flat log blob to recover it.
//
// Stage slices concatenate to exactly the transcript the monolithic
// scorer used to return (StagedScore::flat_log), so every score, figure,
// and persisted log stays byte-identical to the pre-staged pipeline.
//
// The Build stage is independently cacheable: builds do not depend on the
// scoring target model, so a BuildArtifactCache keyed by (app, repo
// content hash) lets Overall and Code-only scoring of the same generated
// sources — and identical artifacts across samples and targets — share one
// build. ScoreCache (eval/harness.hpp) layers its full-score memoization
// on top of this cache; per-layer hit/miss counters make the sharing
// observable.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "minic/diag.hpp"
#include "minic/engine.hpp"
#include "support/json.hpp"
#include "support/sharded_cache.hpp"
#include "vfs/repo.hpp"

namespace pareval::buildsim {
struct BuildResult;
class TuCompileCache;
class LinkCache;
}  // namespace pareval::buildsim

namespace pareval::eval {

/// The three stages of scoring one repository (§6.1). Execute and Validate
/// run once per test case; the pipeline stops at the first failure exactly
/// like the monolithic scorer did.
enum class Stage { Build, Execute, Validate };

/// Stable machine key ("build", "execute", "validate") used by shard files
/// and the persisted score cache.
const char* stage_key(Stage s);
bool stage_from_key(const std::string& key, Stage* out);

enum class StageVerdict { Pass, Fail, Skipped };
const char* stage_verdict_key(StageVerdict v);
bool stage_verdict_from_key(const std::string& key, StageVerdict* out);

// Detail codes for failed stages (StageOutcome::detail; "" when passed).
// A failed Build stage instead carries the machine key of the diagnostic
// category every error shares (diag_detail_key), or kDetailMixedDiagnostics
// when the build emitted errors of several categories.
inline constexpr const char* kDetailRunError = "run-error";
inline constexpr const char* kDetailOutputMismatch = "output-mismatch";
inline constexpr const char* kDetailNoDeviceLaunch = "no-device-launch";
inline constexpr const char* kDetailMixedDiagnostics = "mixed-diagnostics";
/// A build that failed without emitting any error diagnostic — e.g. every
/// command ran but none linked an executable.
inline constexpr const char* kDetailNoExecutable = "no-executable";

/// Stable machine key of a diagnostic category ("makefile-syntax",
/// "undeclared-identifier", ...) — the Build stage's structured provenance.
const char* diag_detail_key(minic::DiagCategory c);
bool diag_detail_from_key(const std::string& key, minic::DiagCategory* out);

/// One stage's structured outcome.
struct StageOutcome {
  Stage stage = Stage::Build;
  StageVerdict verdict = StageVerdict::Skipped;
  /// Execute/Validate: index into the app's test list; -1 for Build.
  int test_case = -1;
  /// Machine-readable failure code (see above); "" when the stage passed.
  std::string detail;
  /// This stage's slice of the legacy build/run transcript. Slices of all
  /// stages concatenate to exactly the monolithic scorer's log.
  std::string log;

  bool operator==(const StageOutcome&) const = default;
};

/// The first failing stage of a staged attempt, in pipeline order —
/// "where the sample stopped". nullptr when no stage failed (a pass, or
/// provenance-less legacy data).
const StageOutcome* first_failed_stage(
    const std::vector<StageOutcome>& stages);

/// Stage log slices concatenated in stage order — the one definition of
/// "the legacy flat transcript" (StagedScore::flat_log and
/// SampleOutcome::failure_log are both this).
std::string concat_stage_logs(const std::vector<StageOutcome>& stages);

/// A fully scored repository: the legacy (built, passed) verdict pair plus
/// the per-stage provenance that produced it.
struct StagedScore {
  bool built = false;
  bool passed = false;
  std::vector<StageOutcome> stages;

  /// The legacy flat transcript: stage log slices concatenated in stage
  /// order — byte-identical to the monolithic scorer's log.
  std::string flat_log() const;

  bool operator==(const StagedScore&) const = default;
};

/// Stable 64-bit content hash of a repository (paths + contents,
/// length-delimited) — the cache-key component that identifies "the same
/// generated artifact".
std::uint64_t repo_content_hash(const vfs::Repo& repo);

/// Build-artifact cache key: (app, repo content hash). Deliberately
/// excludes the target model — builds are target-independent, so scoring
/// one artifact for several targets shares one build. Taking the repo
/// hash lets the pipeline hash the repo once and derive both this key and
/// the TU cache's build-plan key from it.
std::uint64_t build_artifact_key(const apps::AppSpec& app,
                                 std::uint64_t repo_hash);

/// Thread-safe in-memory cache of Build-stage artifacts keyed by
/// build_artifact_key (the middle layer of ScoreCache's three-layer
/// scheme). Values are immutable BuildResults shared by reference:
/// concurrent scorers run the cached executable through their own
/// interpreter instances. Unlike the score layer it is not persisted —
/// executables are live minic programs, not data. misses() counts builds
/// actually performed.
using BuildArtifactCache =
    support::ShardedCache<std::uint64_t,
                          std::shared_ptr<const buildsim::BuildResult>>;

/// The staged scorer: builds the repository (through the build-artifact
/// cache when one is injected), runs every test case, and validates golden
/// output, tolerance, and the §6.1 device requirement — producing one
/// StageOutcome per attempted stage; StagedScore::flat_log() is the flat
/// single-blob view for callers that don't care about provenance.
class ScoringPipeline {
 public:
  ScoringPipeline() = default;
  explicit ScoringPipeline(BuildArtifactCache* build_cache,
                           buildsim::TuCompileCache* tu_cache = nullptr,
                           buildsim::LinkCache* link_cache = nullptr)
      : build_cache_(build_cache), tu_cache_(tu_cache),
        link_cache_(link_cache) {}

  /// Select the engine the Execute stage runs under. Engines are
  /// bit-identical in every observable, so this never changes a score —
  /// only Execute wall time. Not part of any cache key for that reason.
  void set_engine(minic::EngineKind engine) { engine_ = engine; }
  minic::EngineKind engine() const { return engine_; }

  StagedScore score(const apps::AppSpec& app, const vfs::Repo& repo,
                    apps::Model target) const;

  /// The Build stage alone: returns the (possibly cached) artifact and
  /// appends the stage's outcome to `outcome`.
  std::shared_ptr<const buildsim::BuildResult> build_stage(
      const apps::AppSpec& app, const vfs::Repo& repo,
      StageOutcome* outcome) const;

 private:
  BuildArtifactCache* build_cache_ = nullptr;
  /// Threaded into buildsim::build_repo on build-artifact misses, so two
  /// artifacts differing only in their build file share every TU compile
  /// (and persisted failed plans skip the build entirely).
  buildsim::TuCompileCache* tu_cache_ = nullptr;
  /// The warm-object layer's link cache, likewise threaded into
  /// build_repo: a hit replaces link_units with an executable rebuilt
  /// from the persisted link tables.
  buildsim::LinkCache* link_cache_ = nullptr;
  minic::EngineKind engine_ = minic::EngineKind::Interp;
};

/// Process-wide wall time spent inside ScoringPipeline::build_stage, in
/// nanoseconds — the bench's per-pass "Build stage cost" measurement (the
/// object-warm CI gate compares this across cold / TU-warm / object-warm
/// runs, where scores themselves are bit-identical by construction).
std::uint64_t build_stage_nanos();

// JSON codecs, shared by shard files and the persisted score cache.
// from_json returns false on missing/mistyped fields or unknown keys.
support::Json to_json(const StageOutcome& o);
bool from_json(const support::Json& j, StageOutcome* out);
support::Json to_json(const StagedScore& s);
bool from_json(const support::Json& j, StagedScore* out);

}  // namespace pareval::eval
