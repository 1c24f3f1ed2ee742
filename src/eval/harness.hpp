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
  /// are kept under HarnessConfig::keep_logs (bounded by max_log_bytes)
  /// and stripped otherwise — the structured verdicts/details survive
  /// either way. Empty for passed and aborted samples.
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
/// time), from whichever thread ran the sample — so pooled sweeps invoke
/// it concurrently and the callee must synchronize. Samples skipped past
/// a cell's abort floor never ran and are not reported. The sweep
/// server's result streaming and the CLI tools' progress meters both
/// ride this instead of parsing anything.
using SampleProgressFn = std::function<void(const SampleRecord&)>;

struct HarnessConfig {
  int samples_per_task = 25;  // the paper's N (scores are multiples of 0.04)
  std::uint64_t seed = 1070;
  /// Keep per-stage failure-log slices in SampleOutcome (and thus in shard
  /// files). When false only the structured stage verdicts/details are
  /// recorded, so large sweeps don't ship log blobs.
  bool keep_logs = true;
  /// When keep_logs is set and this is non-zero, every kept stage-log
  /// slice is truncated to this many bytes. 0 = unbounded (the default,
  /// which keeps results bit-identical to the unbounded harness).
  std::size_t max_log_bytes = 0;
  /// Concurrency for run_task / run_sweep: 1 = fully serial (no pool),
  /// anything else schedules every sample of every cell on the global
  /// work-stealing pool (which sizes itself to hardware_threads()).
  /// Each sample draws from its own seed ⊕ hash(llm, technique, pair, app,
  /// sample) RNG stream, so results are bit-identical for every setting.
  unsigned threads = 0;
  /// Consult a ScoreCache before building/running a repo. Pure
  /// memoization: hit or miss, the scores are identical.
  bool use_score_cache = true;
  /// The cache instance to consult: injected dependency, nullptr = the
  /// process-wide ScoreCache::global(). An injected cache is used even
  /// when use_score_cache is false (the flag only governs the global
  /// default), so two sweeps can run against isolated caches in one
  /// process.
  ScoreCache* score_cache = nullptr;
  /// Schedule this work on the pool's High lane so it drains before any
  /// Normal-priority tasks (figure-critical cells in bench_figures).
  bool high_priority = false;
  /// Execution engine for the scoring pipeline's Execute stage. Engines
  /// are bit-identical in every observable (enforced by sweep_merge
  /// --verify and the differential VM tests), so this only changes
  /// Execute wall time — scores, logs, and cache contents are invariant.
  minic::EngineKind engine = minic::EngineKind::Interp;
  /// Per-completed-sample streaming hook (see SampleProgressFn). Purely
  /// observational: results are bit-identical with or without it.
  SampleProgressFn on_sample;
};

/// The legacy flat scoring verdict: built/passed plus one log blob. Kept
/// as the convenience view of a StagedScore (eval/pipeline.hpp) for call
/// sites that don't care about per-stage provenance.
struct ScoreResult {
  bool built = false;
  bool passed = false;
  std::string log;

  bool operator==(const ScoreResult&) const = default;
};

/// Score one generated repository against the app's validation tests:
/// builds, runs every test case, matches golden output, and executed on
/// the requested device (§6.1). Thin wrapper over ScoringPipeline::score
/// collapsing the staged outcomes to the legacy flat result; the log is
/// byte-identical to the pre-staged monolith's transcript.
ScoreResult score_repo(const apps::AppSpec& app, const vfs::Repo& repo,
                       apps::Model target);

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
/// The score and TU layers are persistent through one uniform surface
/// over the journaled cache::Store: attach() warm-replays the layer's
/// record stream and binds the store, flush() appends what this process
/// computed since (one locked batch; N workers sharing one store
/// directory need no merge step), and import_store() folds another
/// store's records in for fan-in replay. Figure regeneration after a
/// code-only change therefore warm-starts from the previous run's scores,
/// and a warm start skips Build-stage compile work too (the
/// build-artifact layer holds live executables and stays process-local).
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
  /// attach/flush.
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
  /// flag is inert.
  void enable_object_layer(bool enabled) noexcept {
    object_enabled_.store(enabled, std::memory_order_relaxed);
    tus_.set_object_layer(enabled);
  }
  bool object_layer_enabled() const noexcept {
    return object_enabled_.load(std::memory_order_relaxed);
  }

  /// Bound the score-layer entry count (minimum one entry per shard).
  /// The build layer has its own set_capacity.
  void set_capacity(std::size_t max_entries) {
    scores_.set_capacity(max_entries);
  }

  /// The journal stream name this layer reads/appends in a cache::Store.
  static constexpr const char* kStream = "score";

  /// Bind this cache to a journaled store and warm-replay its "score"
  /// stream (entries marked published: flush() will not re-append them).
  /// Returns false — binding anyway, loading nothing — when the stream is
  /// absent or was written under a different `version` (stale journal).
  bool attach(cache::Store& store,
              std::uint64_t version = scoring_pipeline_hash());
  /// Replay another store's "score" stream into this cache WITHOUT
  /// binding it: records insert if absent and are marked unpublished, so
  /// a following flush() appends them to the attached store — the fan-in
  /// "replay all worker journals into one published store" step.
  bool import_store(cache::Store& store,
                    std::uint64_t version = scoring_pipeline_hash());
  /// Append every entry not yet in the attached store (scored here since
  /// attach, or folded in via import_store) as one locked journal batch,
  /// then compact the stream if its journal outgrew the store's
  /// threshold. Entries append in key order, so two flushes of the same
  /// state write byte-identical batches. Returns the number of records
  /// appended (0 when detached or nothing is pending).
  std::size_t flush();

  /// Score-layer counters as JSON with a pinned key order (hits, misses,
  /// entries) — the "score" block of CACHE_stats.json.
  support::Json stats() const { return scores_.stats(); }

  /// Process-wide instance used by run_task when use_score_cache is set.
  static ScoreCache& global();

 private:
  struct Entry {
    StagedScore result;
    bool published = false;  // already present in the attached store
  };

  bool load_records(cache::Store& store, std::uint64_t version,
                    bool published);

  cache::Store* store_ = nullptr;
  std::uint64_t store_version_ = 0;
  support::ShardedCache<std::uint64_t, Entry> scores_{1 << 16};
  BuildArtifactCache builds_{1 << 12};
  buildsim::TuCompileCache tus_;
  buildsim::LinkCache links_;
  std::atomic<bool> tu_enabled_{true};
  std::atomic<bool> object_enabled_{true};
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

/// Run one (cell, sample) unit with its derived RNG stream: seed ⊕
/// hash(llm, technique, pair, app, sample_index). The unit depends only on
/// its coordinates — never on execution order, thread count, or which
/// process runs it — which is what makes distributed sharding exact.
/// Calibration (how capable the simulated LLM is on this cell) resolves
/// through `suite`, so suites with registered LLMs/pairs generate instead
/// of aborting on missing paper tables.
SampleRun run_cell_sample(const Suite& suite, const SweepCell& cell,
                          const HarnessConfig& config, int sample_index);

/// Paper-suite convenience overload (Suite::paper() calibration).
SampleRun run_cell_sample(const apps::AppSpec& app, llm::Technique technique,
                          const llm::LlmProfile& profile,
                          const llm::Pair& pair, const HarnessConfig& config,
                          int sample_index);

/// Fold per-sample runs (in sample-index order) into a TaskResult. Stops
/// at the first non-generated sample exactly as the serial early-exit
/// does; run_task and the shard merger share this so any recombination of
/// the same SampleRuns is bit-identical to a single-process run.
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

/// The cells of one pair's sweep under the paper suite and default spec —
/// the pre-registry enumeration, bit-identical to the original harness.
std::vector<SweepCell> sweep_cells(const llm::Pair& pair);

/// Run one cell against `suite`'s calibration. samples_per_task and seed
/// come from `config`. `cell_index` is only the coordinate stamped on
/// records streamed through config.on_sample (run_sweep passes the cell's
/// index in its enumeration; direct single-cell callers can leave the
/// default).
TaskResult run_task(const Suite& suite, const SweepCell& cell,
                    const HarnessConfig& config = {}, int cell_index = 0);

/// Run one cell of the paper suite.
TaskResult run_task(const apps::AppSpec& app, llm::Technique technique,
                    const llm::LlmProfile& profile, const llm::Pair& pair,
                    const HarnessConfig& config = {});

/// Run every cell of a (suite, spec) sweep, in canonical cell order.
/// samples_per_task and seed come from the *spec* (the config's copies are
/// ignored); config contributes the execution knobs (threads, logs,
/// score cache, priority). This is the canonical sweep entry point;
/// run_pair_sweep is the paper-suite special case.
std::vector<TaskResult> run_sweep(const Suite& suite, const SweepSpec& spec,
                                  const HarnessConfig& config = {});

/// Run every cell of one pair of the paper benchmark (the paper's
/// per-figure sweep): Suite::paper() + the default spec restricted to
/// `pair`, with samples/seed taken from `config`.
std::vector<TaskResult> run_pair_sweep(const llm::Pair& pair,
                                       const HarnessConfig& config = {});

/// The default spec restricted to one pair with `config`'s samples/seed —
/// the SweepSpec equivalent of a legacy per-pair call, shared by the
/// run_pair_sweep/run_shard/merge_shards compatibility wrappers.
SweepSpec pair_spec(const llm::Pair& pair, const HarnessConfig& config = {});

}  // namespace pareval::eval
