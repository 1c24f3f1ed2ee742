#pragma once
// Distributed sweep sharding: partition the (cell × sample) matrix of a
// (suite, spec) sweep across `shard_count` independent workers, run a
// shard to per-sample records, and recombine shards by cell in
// sample-index order.
//
// Because every (cell, sample) unit draws from an RNG stream derived only
// from its coordinates (see run_cell_sample) and aggregation walks
// sample-index order, merge_shards(run_shard(0..K-1)) is bit-identical to
// a single-process run_sweep for every K — the invariant the CI fan-in
// job enforces end-to-end.
//
// Every shard embeds the full SweepSpec it ran plus its spec_hash; the
// merger refuses to combine shards whose hashes disagree (or that
// disagree with an explicitly supplied spec), so shards of different
// sweeps can never be silently recombined.
//
// Also home to the JSON codecs for the harness's result types, so shard
// files, merged sweeps, and figure inputs share one on-disk format.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/harness.hpp"
#include "support/json.hpp"

namespace pareval::eval {

/// The units one shard owns: global unit index g = cell * samples_per_task
/// + sample is assigned to shard g % shard_count. Interleaving balances
/// load (consecutive samples of an expensive cell land on different
/// shards) and keeps the plan a pure function of the four integers.
struct ShardPlan {
  int shard_index = 0;
  int shard_count = 1;
  std::vector<std::pair<int, int>> units;  // (cell, sample), ascending
};

/// Deterministic planner. Throws std::invalid_argument unless
/// 0 <= shard_index < shard_count and samples_per_cell > 0.
ShardPlan plan_shard(std::size_t cell_count, int samples_per_cell,
                     int shard_index, int shard_count);

/// One shard's worth of a sweep, self-describing (it carries the full
/// spec) so the merger can validate that all shards ran the same
/// configuration and so a shard file needs no side channel.
struct ShardResult {
  SweepSpec spec;
  /// Suite::fingerprint() of the suite that enumerated the cells: bare
  /// cell indices are only meaningful against that suite's registration
  /// order, so the merger checks it alongside the spec hash.
  std::uint64_t suite_fingerprint = 0;
  /// Execution engine the shard's Execute stages ran under. Scores are
  /// engine-invariant by contract, so this is provenance, not a result
  /// input — but the merger still refuses mixed-engine shard sets: a mix
  /// means the worker fleet was not configured uniformly, and the
  /// invariance claim for this sweep was never actually exercised.
  minic::EngineKind engine = minic::EngineKind::Interp;
  int shard_index = 0;
  int shard_count = 1;
  std::vector<SampleRecord> records;  // in plan (ascending unit) order

  bool operator==(const ShardResult&) const = default;
};

/// Run this process's share of a (suite, spec) sweep: the one loop that
/// runs (cell, sample) units, which run_sweep also runs over the 1-shard
/// plan. Serial when config.threads == 1; otherwise the caller and every
/// global-pool worker claim units from one shared index, sample-major, on
/// config.high_priority's lane. Records are in plan order either way.
/// samples/seed come from the spec.
ShardResult run_shard(const Suite& suite, const SweepSpec& spec,
                      int shard_index, int shard_count,
                      const HarnessConfig& config = {});

/// Recombine shards of one (suite, spec) sweep into per-cell TaskResults,
/// bit-identical to run_sweep with the same spec. Throws
/// std::runtime_error when any shard's spec_hash differs from `spec`'s,
/// any shard was produced under a suite whose fingerprint differs from
/// `suite`'s, the shards disagree on shard_count, cover a unit twice, or
/// leave a unit uncovered. (Records past a cell's first aborted sample are
/// still required for coverage — every unit runs in full — but aggregation
/// ignores them, exactly as run_sweep does.)
std::vector<TaskResult> merge_shards(const Suite& suite,
                                     const SweepSpec& spec,
                                     const std::vector<ShardResult>& shards);

// --- stable string keys for enums (used by the JSON codecs) ----------------

/// "cuda", "omp_threads", "omp_offload", "kokkos" (apps::model_key).
const char* model_key(apps::Model m);
bool model_from_key(const std::string& key, apps::Model* out);

/// technique_name round trip ("Non-agentic", ...).
bool technique_from_name(const std::string& name, llm::Technique* out);

// --- JSON codecs ------------------------------------------------------------
// to_json is total; from_json returns false (leaving *out unspecified) on
// missing/mistyped fields so the CLI tools can reject malformed files.

support::Json to_json(const SampleOutcome& o);
bool from_json(const support::Json& j, SampleOutcome* out);

support::Json to_json(const SampleRun& r);
bool from_json(const support::Json& j, SampleRun* out);

support::Json to_json(const SampleRecord& r);
bool from_json(const support::Json& j, SampleRecord* out);

support::Json to_json(const TaskResult& t);
bool from_json(const support::Json& j, TaskResult* out);

support::Json to_json(const ShardResult& s);
bool from_json(const support::Json& j, ShardResult* out);

/// The merged-sweep document ("format": "pareval-sweep"): spec + hash +
/// shard_count, then per-pair task groups in suite order. One builder
/// shared by sweep_merge and the sweep service's client-side fold, so a
/// server-streamed job written to disk is byte-identical to the batch
/// fan-in's merged.json — the acceptance gate CI compares with cmp.
support::Json merged_sweep_json(const Suite& suite, const SweepSpec& spec,
                                int shard_count,
                                const std::vector<TaskResult>& tasks);

/// File wrapper for sweep_worker output: one or more ShardResults under a
/// format tag and version (v2: staged sample outcomes). Each serialized
/// shard embeds its spec and spec_hash; parsing rejects other format
/// versions and entries whose stored hash does not match the spec they
/// carry (a tampered or corrupted file).
std::string shard_file_text(const std::vector<ShardResult>& shards);
/// Parse a shard file; returns false and sets `error` on malformed input.
bool parse_shard_file(const std::string& text,
                      std::vector<ShardResult>* out, std::string* error);

}  // namespace pareval::eval
