#pragma once
// The ParEval-Repo evaluation harness: run N translation samples for every
// (technique, LLM, app, pair) cell, score them in both the paper's modes
// ("Overall" = generated build system, "Code-only" = ground-truth build
// file swapped in), collect failure logs for the classification pipeline,
// and account tokens.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "agents/techniques.hpp"
#include "apps/app.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "eval/pipeline.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "llm/calibration.hpp"
#include "llm/profiles.hpp"
#include "support/cachestore.hpp"
#include "support/sharded_cache.hpp"

namespace pareval::eval {

class ScoreCache;

struct SampleOutcome {
  bool built_overall = false;
  bool passed_overall = false;
  bool built_codeonly = false;
  bool passed_codeonly = false;
  long long tokens = 0;
  /// Staged provenance of the *overall* attempt when it failed: one
  /// StageOutcome per attempted stage, in pipeline order. Stage log slices
  /// are kept under HarnessConfig::keep_logs and stripped otherwise — the
  /// structured verdicts/details survive either way. Empty for passed and
  /// aborted samples.
  std::vector<StageOutcome> stages;
  std::vector<std::string> defects;  // injected (ground truth for Fig. 3)

  /// The legacy flat failure blob: the stage log slices concatenated in
  /// stage order — byte-identical to the monolithic harness's
  /// failure_log field (and "" when logs were stripped).
  std::string failure_log() const;

  bool operator==(const SampleOutcome&) const = default;
};

struct TaskResult {
  std::string llm;
  llm::Technique technique = llm::Technique::NonAgentic;
  llm::Pair pair;
  std::string app;
  bool ran = false;          // false: aborted cell (empty in the heat map)
  std::string abort_reason;
  int samples = 0;
  int built_overall = 0, passed_overall = 0;
  int built_codeonly = 0, passed_codeonly = 0;
  double avg_tokens = 0.0;
  std::vector<SampleOutcome> outcomes;

  double build1_overall() const;
  double pass1_overall() const;
  double build1_codeonly() const;
  double pass1_codeonly() const;

  bool operator==(const TaskResult&) const = default;
};

struct SampleRecord;

/// Incremental progress hook: invoked once per *completed* sample with
/// its coordinate-tagged record, at completion time (not collection
/// time), from whichever thread ran the sample — so concurrent producers
/// invoke it concurrently and the callee must synchronize. The sweep
/// server's result streaming (serve::Client) rides this instead of
/// parsing anything.
using SampleProgressFn = std::function<void(const SampleRecord&)>;

/// The execution knobs of a sweep. What a sweep covers — cells, samples
/// per cell, seed — is the SweepSpec's; apart from keep_logs stripping
/// log slices, no field here changes a result.
struct HarnessConfig {
  /// Keep per-stage failure-log slices in SampleOutcome (and thus in shard
  /// files). When false only the structured stage verdicts/details are
  /// recorded, so large sweeps don't ship log blobs.
  bool keep_logs = true;
  /// Concurrency for run_sweep / run_shard: 1 = fully serial (no pool),
  /// anything else schedules every (cell, sample) unit on the global
  /// work-stealing pool (which sizes itself to hardware_threads()).
  /// Each sample draws from its own seed ⊕ hash(llm, technique, pair, app,
  /// sample) RNG stream, so results are bit-identical for every setting.
  unsigned threads = 0;
  /// The ScoreCache consulted before building/running a repo; nullptr =
  /// uncached. Pure memoization: hit or miss, the scores are identical.
  /// The caller owns the cache, so two sweeps in one process share
  /// memoized scores only when they are handed the same instance.
  ScoreCache* score_cache = nullptr;
  /// Schedule this work on the pool's High lane so it drains before any
  /// Normal-priority tasks (figure-critical cells in bench_figures).
  bool high_priority = false;
  /// Execution engine for the scoring pipeline's Execute stage. Engines
  /// are bit-identical in every observable (enforced by sweep_merge
  /// --verify and the differential VM tests), so this only changes
  /// Execute wall time — scores, logs, and cache contents are invariant.
  minic::EngineKind engine = minic::EngineKind::Interp;
};

/// Version key of the scoring pipeline for `suite`'s registered apps:
/// folds a hand-bumped pipeline tag with every embedded scoring input
/// (app repos, ground-truth builds, test cases, tolerances) in suite
/// registration order. A persisted score stream whose version differs is
/// stale — the scores it memoizes were produced by a different pipeline —
/// and ScoreCache::attach replays nothing from it. Custom suites get
/// version-level invalidation of their own scoring inputs by persisting
/// caches under scoring_pipeline_hash(suite) instead of the paper default.
std::uint64_t scoring_pipeline_hash(const Suite& suite);

/// The paper overload: folds apps::all_apps() (== Suite::paper()'s apps),
/// once per process since the embedded apps are immutable. Golden-pinned
/// in the tests — the CI score-cache key must only move when scoring
/// semantics actually change.
std::uint64_t scoring_pipeline_hash();

/// Three-layer memoization of the staged scoring pipeline, sharded to keep
/// the harness's parallel samples off one lock (a fourth, the link cache,
/// sits under the TU layer).
///
/// Upper (score) layer: full StagedScores keyed by (app name, repo content
/// hash, target model). Code-only re-scores and repeated golden builds of
/// identical artifacts hit here instead of re-running any stage.
///
/// Middle (build-artifact) layer: a BuildArtifactCache keyed by (app, repo
/// content hash) — no target — consulted by the pipeline on a score-layer
/// miss, so scoring one artifact under several targets (or re-validating
/// after an eviction) shares one build. Per-layer hit/miss counters make
/// the sharing observable; builds().misses() counts builds performed.
///
/// Lower (TU compile) layer: a buildsim::TuCompileCache, consulted by
/// every build the middle layer misses. Content-addressed per translation
/// unit — (source, resolved headers, caps, defines, toolchain) — so two
/// artifacts that differ only in their build file (the dominant
/// build-failure defect class) share every TU compile; tus().misses()
/// counts TU compiles actually performed.
///
/// ScoreCache is the one persistence and stats surface of the whole stack.
/// attach() binds every persistent layer to a journaled cache::Store and
/// warm-replays its five streams ("score", "tu", "tuplan", "obj1",
/// "lnk1"); flush() appends what this process computed since (one locked
/// batch per stream; N workers sharing one store directory need no merge
/// step); import_store() folds another store's streams in for fan-in
/// replay; stats() reports every layer. Figure regeneration after a
/// code-only change therefore warm-starts from the previous run's scores,
/// and a warm start skips Build-stage compile work too (the
/// build-artifact layer holds live executables and stays process-local).
/// The TU and link layers keep their own attach/flush for callers that
/// withhold the score stream (sweep_merge --verify's object-warm
/// reference, bench_figures --no-score-layer).
///
/// Every layer sits on a support::ShardedCache: LRU-bounded, and
/// single-flight on misses, so each layer's misses() counts the distinct
/// keys it computed (for the TU layer, distinct (key, manifest) pairs),
/// whatever the thread count.
class ScoreCache {
 public:
  /// ScoringPipeline::score with three-layer memoization. `engine` picks
  /// the Execute-stage backend on a miss; it is deliberately NOT part of
  /// the cache key because engines are bit-identical by contract (a hit
  /// scored under one engine is byte-equal to a re-score under the other).
  StagedScore score(const apps::AppSpec& app, const vfs::Repo& repo,
                    apps::Model target,
                    minic::EngineKind engine = minic::EngineKind::Interp);

  std::size_t hits() const noexcept { return scores_.hits(); }
  std::size_t misses() const noexcept { return scores_.misses(); }
  std::size_t size() const { return scores_.size(); }
  /// Clears every layer (and all counters).
  void clear();

  /// The middle (build-artifact) layer, for per-layer stats and capacity
  /// control.
  BuildArtifactCache& builds() noexcept { return builds_; }
  const BuildArtifactCache& builds() const noexcept { return builds_; }

  /// The lower (TU compile) layer: per-layer stats, capacity, and its own
  /// attach/flush for callers that withhold the score stream.
  buildsim::TuCompileCache& tus() noexcept { return tus_; }
  const buildsim::TuCompileCache& tus() const noexcept { return tus_; }

  /// The link layer of the warm-object store: content-addressed link
  /// outcomes with pre-compiled bytecode, consulted by every link the
  /// layers above miss. Shares the TU layer's attach/flush lifecycle.
  buildsim::LinkCache& links() noexcept { return links_; }
  const buildsim::LinkCache& links() const noexcept { return links_; }

  /// Thread (or stop threading) the TU layer into the scoring pipeline.
  /// Enabled by default; sweep_merge --verify turns it off for one of its
  /// reference runs so the staged two-layer and TU-cached configurations
  /// are gated for bit-identity *independently*.
  void enable_tu_layer(bool enabled) noexcept {
    tu_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool tu_layer_enabled() const noexcept {
    return tu_enabled_.load(std::memory_order_relaxed);
  }

  /// Thread (or stop threading) the warm-object layers — the TU layer's
  /// serialized objects and the link cache — into the pipeline. Enabled
  /// by default; the bench's TU-warm pass and one sweep_merge --verify
  /// reference run turn it off so object-warm and outcome-only
  /// configurations are gated for bit-identity independently. Requires
  /// the TU layer (object keys come from it); with the TU layer off this
  /// flag is inert. The TU layer owns the flag.
  void enable_object_layer(bool enabled) noexcept {
    tus_.set_object_layer(enabled);
  }
  bool object_layer_enabled() const noexcept { return tus_.object_layer(); }

  /// Bound the score-layer entry count (minimum one entry per shard).
  /// The build layer has its own set_capacity.
  void set_capacity(std::size_t max_entries) {
    scores_.set_capacity(max_entries);
  }

  /// The journal stream name this layer reads/appends in a cache::Store.
  static constexpr const char* kStream = "score";

  /// Bind the score, TU and link layers to a journaled store and
  /// warm-replay all five streams (entries marked published: flush() will
  /// not re-append them). Returns whether the score stream was warm:
  /// false — binding anyway, loading nothing from it — when it is absent
  /// or was written under a different `version` (stale journal). Every
  /// layer's attach is a no-op on the store it is already bound to, so a
  /// caller that also attaches tus() or links() replays nothing twice.
  bool attach(cache::Store& store,
              std::uint64_t version = scoring_pipeline_hash());
  /// Replay another store's five streams into this cache WITHOUT binding
  /// it: records insert if absent and are marked unpublished, so a
  /// following flush() appends them to the attached store — the fan-in
  /// "replay all worker journals into one published store" step. True
  /// when any stream replayed.
  bool import_store(cache::Store& store,
                    std::uint64_t version = scoring_pipeline_hash());
  /// Append every record not yet in the attached store (computed here
  /// since attach, or folded in via import_store) — score, then TU, then
  /// link, one locked batch per stream, each in key order so two flushes
  /// of the same state write byte-identical batches — compacting each
  /// stream whose journal outgrew the store's threshold. A layer with no
  /// store bound appends nothing. Returns the total records appended.
  std::size_t flush();

  /// The whole stack as one JSON object with a pinned key order: "score",
  /// "builds", "tu", "link" (each that layer's own stats(); "score" is
  /// hits, misses, entries) and "driver" — the process-wide
  /// execsim::driver_counters() (parses, links, tree_fallbacks), which
  /// count every ScoreCache in the process, not just this one. A layer
  /// bound to a store adds the journal blocks of its streams:
  /// score.journal, tu.journal, tu.plan_journal, tu.obj_journal and
  /// link.journal. CACHE_stats.json and the sweep_server status "cache"
  /// block are this object.
  support::Json stats() const;

 private:
  struct Entry {
    StagedScore result;
    bool published = false;  // already present in the attached store
  };

  bool load_records(cache::Store& store, std::uint64_t version,
                    bool published);
  std::size_t flush_scores();

  cache::Binding binding_;
  support::ShardedCache<std::uint64_t, Entry> scores_{1 << 16};
  BuildArtifactCache builds_{1 << 12};
  buildsim::TuCompileCache tus_;
  buildsim::LinkCache links_;
  std::atomic<bool> tu_enabled_{true};
};

/// Everything one sample contributes to its cell's TaskResult.
struct SampleRun {
  bool generated = false;
  std::string abort_reason;
  SampleOutcome outcome;

  bool operator==(const SampleRun&) const = default;
};

/// One (cell, sample) unit of a sweep, tagged with its coordinates so
/// shards (and streamed server results) can be recombined without any
/// ordering assumptions. `cell` indexes sweep_cells(suite, spec).
struct SampleRecord {
  int cell = 0;    // index into sweep_cells(suite, spec)
  int sample = 0;  // sample index within the cell
  SampleRun run;

  bool operator==(const SampleRecord&) const = default;
};

/// One (app, technique, LLM, pair) cell of a sweep.
struct SweepCell {
  const apps::AppSpec* app = nullptr;
  llm::Technique technique = llm::Technique::NonAgentic;
  const llm::LlmProfile* profile = nullptr;
  llm::Pair pair;
};

/// Run one (cell, sample) unit with its derived RNG stream: `seed` (the
/// spec's) ⊕ hash(llm, technique, pair, app, sample_index). The unit
/// depends only on its coordinates — never on execution order, thread
/// count, or which process runs it — which is what makes distributed
/// sharding exact. Calibration (how capable the simulated LLM is on this
/// cell) resolves through `suite`, so suites with registered LLMs/pairs
/// generate instead of aborting on missing paper tables. A cell without
/// calibration aborts before generating, so either every sample of a cell
/// aborts or none does.
SampleRun run_cell_sample(const Suite& suite, const SweepCell& cell,
                          const HarnessConfig& config, std::uint64_t seed,
                          int sample_index);

/// Fold per-sample runs (in sample-index order) into a TaskResult. Stops
/// at the first non-generated sample; run_sweep and merge_shards share
/// this so any recombination of the same SampleRuns is bit-identical to a
/// single-process run.
TaskResult aggregate_samples(const apps::AppSpec& app,
                             llm::Technique technique,
                             const llm::LlmProfile& profile,
                             const llm::Pair& pair,
                             std::vector<SampleRun> runs);

/// The canonical cell enumeration of a (suite, spec) sweep: pairs in suite
/// registration order (filtered by the spec), then per pair apps (outer),
/// techniques, and profiles — all in suite order, filtered by the spec's
/// selections and technique gates. Cell indices into this list are what
/// the shard planner partitions and shard files reference.
std::vector<SweepCell> sweep_cells(const Suite& suite,
                                   const SweepSpec& spec);

/// Run every cell of a (suite, spec) sweep, in canonical cell order: the
/// 1-shard run_shard (eval/shard.hpp), each cell's runs folded by
/// aggregate_samples. samples_per_task and seed come from the spec; config
/// contributes the execution knobs (threads, logs, score cache, priority,
/// engine).
std::vector<TaskResult> run_sweep(const Suite& suite, const SweepSpec& spec,
                                  const HarnessConfig& config = {});

/// The paper's default spec restricted to one pair (N=25, seed 1070):
/// one of the paper's per-figure sweeps.
SweepSpec pair_spec(const llm::Pair& pair);

}  // namespace pareval::eval
