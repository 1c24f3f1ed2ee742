#include "eval/shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "support/par.hpp"
#include "support/strings.hpp"

namespace pareval::eval {

using support::index_from_json;
using support::Json;
using support::ThreadPool;

// --- planner ----------------------------------------------------------------

ShardPlan plan_shard(std::size_t cell_count, int samples_per_cell,
                     int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
    throw std::invalid_argument(support::strfmt(
        "plan_shard: shard_index %d out of range for shard_count %d",
        shard_index, shard_count));
  }
  if (samples_per_cell < 1) {
    throw std::invalid_argument("plan_shard: samples_per_cell must be >= 1");
  }
  ShardPlan plan;
  plan.shard_index = shard_index;
  plan.shard_count = shard_count;
  const std::size_t total = cell_count * static_cast<std::size_t>(samples_per_cell);
  // First unit this shard owns, then stride by shard_count: g % K == index.
  for (std::size_t g = static_cast<std::size_t>(shard_index); g < total;
       g += static_cast<std::size_t>(shard_count)) {
    plan.units.emplace_back(static_cast<int>(g / samples_per_cell),
                            static_cast<int>(g % samples_per_cell));
  }
  return plan;
}

// --- worker -----------------------------------------------------------------

namespace {

/// The records of `plan`'s units over `cells` (sweep_cells of `spec`), in
/// plan order: the one loop that runs (cell, sample) units for every
/// batch sweep, shard and figure (the sweep server's JobQueue dispatches
/// units one at a time instead).
std::vector<SampleRecord> run_units(const Suite& suite, const SweepSpec& spec,
                                    const std::vector<SweepCell>& cells,
                                    const ShardPlan& plan,
                                    const HarnessConfig& config) {
  std::vector<SampleRecord> records(plan.units.size());
  auto run = [&](std::size_t i) {
    const auto [cell, sample] = plan.units[i];
    records[i] = {cell, sample,
                  run_cell_sample(suite, cells[cell], config, spec.seed,
                                  sample)};
  };
  if (config.threads == 1) {
    for (std::size_t i = 0; i < plan.units.size(); ++i) run(i);
    return records;
  }
  // The caller and every pool worker claim units from one index. Claim
  // order is sample-major, so units that run side by side belong to
  // different cells: samples of one cell often generate the same
  // repository, and concurrent misses on one score-cache key wait for a
  // single computation instead of working.
  std::vector<std::size_t> order(plan.units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&plan](std::size_t a, std::size_t b) {
                     return plan.units[a].second < plan.units[b].second;
                   });
  support::parallel_for(
      0, order.size(), [&](std::size_t k) { run(order[k]); },
      ThreadPool::global().worker_count() + 1,
      config.high_priority ? support::TaskPriority::High
                           : support::TaskPriority::Normal);
  return records;
}

}  // namespace

ShardResult run_shard(const Suite& suite, const SweepSpec& spec,
                      int shard_index, int shard_count,
                      const HarnessConfig& config) {
  const std::vector<SweepCell> cells = sweep_cells(suite, spec);
  ShardResult out;
  out.spec = spec;
  out.suite_fingerprint = suite.fingerprint();
  out.engine = config.engine;
  out.shard_index = shard_index;
  out.shard_count = shard_count;
  out.records = run_units(suite, spec, cells,
                          plan_shard(cells.size(), spec.samples_per_task,
                                     shard_index, shard_count),
                          config);
  return out;
}

std::vector<TaskResult> run_sweep(const Suite& suite, const SweepSpec& spec,
                                  const HarnessConfig& config) {
  const std::vector<SweepCell> cells = sweep_cells(suite, spec);
  std::vector<SampleRecord> records = run_units(
      suite, spec, cells, plan_shard(cells.size(), spec.samples_per_task, 0, 1),
      config);
  // The 1-shard plan is cell-major with samples ascending, so cell c owns
  // records [c * N, (c + 1) * N).
  const auto samples = static_cast<std::size_t>(spec.samples_per_task);
  auto record = records.begin();
  std::vector<TaskResult> out;
  out.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    std::vector<SampleRun> runs;
    runs.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i, ++record) {
      runs.push_back(std::move(record->run));
    }
    out.push_back(aggregate_samples(*cell.app, cell.technique, *cell.profile,
                                    cell.pair, std::move(runs)));
  }
  return out;
}

// --- merger -----------------------------------------------------------------

std::vector<TaskResult> merge_shards(const Suite& suite,
                                     const SweepSpec& spec,
                                     const std::vector<ShardResult>& shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge_shards: no shards to merge");
  }
  const std::uint64_t want_hash = spec_hash(spec);
  const std::uint64_t want_suite = suite.fingerprint();
  const int samples = spec.samples_per_task;
  const int shard_count = shards.front().shard_count;
  for (const ShardResult& s : shards) {
    if (spec_hash(s.spec) != want_hash) {
      throw std::runtime_error(support::strfmt(
          "merge_shards: shard %d ran a different spec (hash %s vs %s)",
          s.shard_index, support::u64_to_hex(spec_hash(s.spec)).c_str(),
          support::u64_to_hex(want_hash).c_str()));
    }
    if (s.suite_fingerprint != want_suite) {
      // Same spec, different registries: the shard's cell indices would
      // resolve against the wrong cells — refuse rather than misattribute.
      throw std::runtime_error(support::strfmt(
          "merge_shards: shard %d ran under a different suite "
          "(fingerprint %s vs %s)",
          s.shard_index,
          support::u64_to_hex(s.suite_fingerprint).c_str(),
          support::u64_to_hex(want_suite).c_str()));
    }
    if (s.shard_count != shard_count) {
      throw std::runtime_error(support::strfmt(
          "merge_shards: shard %d disagrees on shard_count (%d vs %d)",
          s.shard_index, s.shard_count, shard_count));
    }
    if (s.engine != shards.front().engine) {
      // Scores are engine-invariant, but a mixed-engine shard set means
      // the worker fleet was misconfigured — refuse rather than publish a
      // sweep whose provenance claims an engine half the units never ran.
      throw std::runtime_error(support::strfmt(
          "merge_shards: shard %d ran under engine '%s' but shard %d ran "
          "under '%s' — all shards of one sweep must use the same engine",
          s.shard_index, minic::engine_key(s.engine),
          shards.front().shard_index,
          minic::engine_key(shards.front().engine)));
    }
  }

  const std::vector<SweepCell> cells = sweep_cells(suite, spec);
  // cell -> sample -> run, deduplicated with an exactly-once check.
  std::vector<std::vector<std::pair<bool, SampleRun>>> grid(
      cells.size(),
      std::vector<std::pair<bool, SampleRun>>(
          static_cast<std::size_t>(samples)));
  for (const ShardResult& s : shards) {
    for (const SampleRecord& rec : s.records) {
      if (rec.cell < 0 || rec.cell >= static_cast<int>(cells.size()) ||
          rec.sample < 0 || rec.sample >= samples) {
        throw std::runtime_error(support::strfmt(
            "merge_shards: record (cell %d, sample %d) out of range",
            rec.cell, rec.sample));
      }
      auto& slot = grid[rec.cell][rec.sample];
      if (slot.first) {
        throw std::runtime_error(support::strfmt(
            "merge_shards: unit (cell %d, sample %d) covered twice",
            rec.cell, rec.sample));
      }
      slot = {true, rec.run};
    }
  }

  std::vector<TaskResult> out;
  out.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<SampleRun> runs;
    runs.reserve(static_cast<std::size_t>(samples));
    for (int i = 0; i < samples; ++i) {
      auto& slot = grid[c][i];
      if (!slot.first) {
        throw std::runtime_error(support::strfmt(
            "merge_shards: unit (cell %zu, sample %d) missing — expected "
            "%d shards",
            c, i, shard_count));
      }
      runs.push_back(std::move(slot.second));
    }
    out.push_back(aggregate_samples(*cells[c].app, cells[c].technique,
                                    *cells[c].profile, cells[c].pair,
                                    std::move(runs)));
  }
  return out;
}

// --- enum keys --------------------------------------------------------------

const char* model_key(apps::Model m) { return apps::model_key(m); }

bool model_from_key(const std::string& key, apps::Model* out) {
  return apps::model_from_key(key, out);
}

bool technique_from_name(const std::string& name, llm::Technique* out) {
  for (const auto t : {llm::Technique::NonAgentic, llm::Technique::TopDown,
                       llm::Technique::SweAgent}) {
    if (name == llm::technique_name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

// --- JSON codecs ------------------------------------------------------------

namespace {

Json pair_to_json(const llm::Pair& p) {
  Json j = Json::object();
  j.set("from", apps::model_key(p.from));
  j.set("to", apps::model_key(p.to));
  return j;
}

bool pair_from_json(const Json& j, llm::Pair* out) {
  return apps::model_from_key(j["from"].as_string(), &out->from) &&
         apps::model_from_key(j["to"].as_string(), &out->to);
}

Json u64_to_json(std::uint64_t v) { return Json(support::u64_to_hex(v)); }

bool u64_from_json(const Json& j, std::uint64_t* out) {
  return support::u64_from_hex(j.as_string(), out);
}

}  // namespace

Json to_json(const SampleRun& r) {
  Json j = Json::object();
  j.set("generated", r.generated);
  if (!r.generated) {
    j.set("abort_reason", r.abort_reason);
    return j;  // outcome is all-default for non-generated samples
  }
  j.set("outcome", to_json(r.outcome));
  return j;
}

bool from_json(const Json& j, SampleRun* out) {
  if (!j["generated"].is_bool()) return false;
  out->generated = j["generated"].as_bool();
  if (!out->generated) {
    out->abort_reason = j["abort_reason"].as_string();
    out->outcome = SampleOutcome{};
    return true;
  }
  return from_json(j["outcome"], &out->outcome);
}

Json to_json(const SampleRecord& r) {
  Json j = Json::object();
  j.set("cell", r.cell);
  j.set("sample", r.sample);
  j.set("run", to_json(r.run));
  return j;
}

bool from_json(const Json& j, SampleRecord* out) {
  return j.is_object() && index_from_json(j["cell"], &out->cell) &&
         index_from_json(j["sample"], &out->sample) &&
         from_json(j["run"], &out->run);
}

Json to_json(const SampleOutcome& o) {
  Json j = Json::object();
  j.set("built_overall", o.built_overall);
  j.set("passed_overall", o.passed_overall);
  j.set("built_codeonly", o.built_codeonly);
  j.set("passed_codeonly", o.passed_codeonly);
  j.set("tokens", o.tokens);
  // v2: structured per-stage outcomes replace the flat failure_log blob.
  // Omitted when empty (passed samples) so shard files don't grow; the
  // harness's keep_logs policy already decided whether stage outcomes
  // carry their log slices.
  if (!o.stages.empty()) {
    Json stages = Json::array();
    for (const StageOutcome& s : o.stages) stages.push_back(to_json(s));
    j.set("stages", std::move(stages));
  }
  Json defects = Json::array();
  for (const std::string& d : o.defects) defects.push_back(d);
  j.set("defects", std::move(defects));
  return j;
}

bool from_json(const Json& j, SampleOutcome* out) {
  if (!j.is_object() || !j["built_overall"].is_bool() ||
      !j["tokens"].is_number()) {
    return false;
  }
  out->built_overall = j["built_overall"].as_bool();
  out->passed_overall = j["passed_overall"].as_bool();
  out->built_codeonly = j["built_codeonly"].as_bool();
  out->passed_codeonly = j["passed_codeonly"].as_bool();
  out->tokens = j["tokens"].as_int();
  out->stages.clear();
  for (const Json& s : j["stages"].items()) {
    StageOutcome stage;
    if (!from_json(s, &stage)) return false;
    out->stages.push_back(std::move(stage));
  }
  out->defects.clear();
  for (const Json& d : j["defects"].items()) {
    out->defects.push_back(d.as_string());
  }
  return true;
}

Json to_json(const TaskResult& t) {
  Json j = Json::object();
  j.set("llm", t.llm);
  j.set("technique", llm::technique_name(t.technique));
  j.set("pair", pair_to_json(t.pair));
  j.set("app", t.app);
  j.set("ran", t.ran);
  j.set("abort_reason", t.abort_reason);
  j.set("samples", t.samples);
  j.set("built_overall", t.built_overall);
  j.set("passed_overall", t.passed_overall);
  j.set("built_codeonly", t.built_codeonly);
  j.set("passed_codeonly", t.passed_codeonly);
  j.set("avg_tokens", t.avg_tokens);
  Json outcomes = Json::array();
  for (const SampleOutcome& o : t.outcomes) outcomes.push_back(to_json(o));
  j.set("outcomes", std::move(outcomes));
  return j;
}

bool from_json(const Json& j, TaskResult* out) {
  if (!j.is_object() || !j["llm"].is_string() || !j["ran"].is_bool()) {
    return false;
  }
  out->llm = j["llm"].as_string();
  if (!technique_from_name(j["technique"].as_string(), &out->technique)) {
    return false;
  }
  if (!pair_from_json(j["pair"], &out->pair)) return false;
  out->app = j["app"].as_string();
  out->ran = j["ran"].as_bool();
  out->abort_reason = j["abort_reason"].as_string();
  if (!index_from_json(j["samples"], &out->samples) ||
      !index_from_json(j["built_overall"], &out->built_overall) ||
      !index_from_json(j["passed_overall"], &out->passed_overall) ||
      !index_from_json(j["built_codeonly"], &out->built_codeonly) ||
      !index_from_json(j["passed_codeonly"], &out->passed_codeonly)) {
    return false;
  }
  out->avg_tokens = j["avg_tokens"].as_double();
  out->outcomes.clear();
  for (const Json& o : j["outcomes"].items()) {
    SampleOutcome outcome;
    if (!from_json(o, &outcome)) return false;
    out->outcomes.push_back(std::move(outcome));
  }
  return true;
}

Json to_json(const ShardResult& s) {
  Json j = Json::object();
  j.set("spec", to_json(s.spec));
  // Redundant with "spec", but load-bearing: the parser recomputes the
  // hash and rejects entries where the two disagree, and the merger
  // compares hashes across shards (and against any --spec file).
  j.set("spec_hash", u64_to_json(spec_hash(s.spec)));
  // Engine provenance, next to the spec hash: which Execute backend
  // produced these records. The merger rejects mixed-engine shard sets.
  j.set("engine", minic::engine_key(s.engine));
  j.set("suite_fingerprint", u64_to_json(s.suite_fingerprint));
  j.set("shard_index", s.shard_index);
  j.set("shard_count", s.shard_count);
  Json records = Json::array();
  for (const SampleRecord& rec : s.records) records.push_back(to_json(rec));
  j.set("records", std::move(records));
  return j;
}

bool from_json(const Json& j, ShardResult* out) {
  if (!j.is_object() || !from_json(j["spec"], &out->spec)) return false;
  std::uint64_t stored_hash = 0;
  if (!u64_from_json(j["spec_hash"], &stored_hash) ||
      stored_hash != spec_hash(out->spec)) {
    return false;  // spec and its recorded hash disagree: reject the shard
  }
  const auto engine = minic::engine_from_key(j["engine"].as_string());
  if (!engine.has_value()) return false;
  out->engine = *engine;
  if (!u64_from_json(j["suite_fingerprint"], &out->suite_fingerprint)) {
    return false;
  }
  if (!index_from_json(j["shard_index"], &out->shard_index) ||
      !index_from_json(j["shard_count"], &out->shard_count)) {
    return false;
  }
  out->records.clear();
  for (const Json& r : j["records"].items()) {
    SampleRecord rec;
    if (!from_json(r, &rec)) return false;
    out->records.push_back(std::move(rec));
  }
  return true;
}

// --- merged-sweep document --------------------------------------------------

Json merged_sweep_json(const Suite& suite, const SweepSpec& spec,
                       int shard_count,
                       const std::vector<TaskResult>& tasks) {
  Json merged = Json::object();
  merged.set("format", "pareval-sweep");
  merged.set("spec", to_json(spec));
  merged.set("spec_hash", support::u64_to_hex(spec_hash(spec)));
  merged.set("shard_count", shard_count);
  Json pairs_json = Json::array();
  for (const llm::Pair& pair : suite.pairs()) {
    if (!spec.selects_pair(pair)) continue;
    Json tasks_json = Json::array();
    for (const TaskResult& t : tasks) {
      if (t.pair == pair) tasks_json.push_back(to_json(t));
    }
    if (tasks_json.size() == 0) continue;
    Json entry = Json::object();
    entry.set("pair", pair_to_json(pair));
    entry.set("tasks", std::move(tasks_json));
    pairs_json.push_back(std::move(entry));
  }
  merged.set("pairs", std::move(pairs_json));
  return merged;
}

// --- shard files ------------------------------------------------------------

namespace {
constexpr const char* kShardFormat = "pareval-shard";
// v2: SampleOutcome carries staged outcomes instead of a flat
// failure_log. The merger needs every shard's outcomes in one format —
// mixing would break merged-vs-in-process bit-identity — so the parser
// rejects other versions outright.
// v3: every shard records the execution engine ("interp" / "vm") its
// Execute stages ran under, and the merger rejects mixed-engine sets.
constexpr long long kShardFormatVersion = 3;
}  // namespace

std::string shard_file_text(const std::vector<ShardResult>& shards) {
  Json root = Json::object();
  root.set("format", kShardFormat);
  root.set("format_version", kShardFormatVersion);
  Json arr = Json::array();
  for (const ShardResult& s : shards) arr.push_back(to_json(s));
  root.set("shards", std::move(arr));
  return root.dump() + "\n";
}

bool parse_shard_file(const std::string& text,
                      std::vector<ShardResult>* out, std::string* error) {
  std::string parse_error;
  const auto root = Json::parse(text, &parse_error);
  if (!root) {
    if (error != nullptr) *error = "JSON parse error: " + parse_error;
    return false;
  }
  if ((*root)["format"].as_string() != kShardFormat) {
    if (error != nullptr) *error = "not a pareval-shard file";
    return false;
  }
  if (!(*root)["format_version"].is_number() ||
      (*root)["format_version"].as_int() != kShardFormatVersion) {
    if (error != nullptr) {
      *error = support::strfmt(
          "unsupported shard format version (want %lld) — regenerate the "
          "shard with this build's sweep_worker",
          kShardFormatVersion);
    }
    return false;
  }
  out->clear();
  for (const Json& s : (*root)["shards"].items()) {
    ShardResult shard;
    if (!from_json(s, &shard)) {
      if (error != nullptr) {
        *error = support::strfmt("malformed shard entry #%zu", out->size());
      }
      return false;
    }
    out->push_back(std::move(shard));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "shard file contains no shards";
    return false;
  }
  return true;
}

}  // namespace pareval::eval
