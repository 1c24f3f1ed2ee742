// bench_figures: regenerate every figure and table of the paper off ONE
// (suite, spec) sweep, with every cell overlapped on the global
// work-stealing pool and every score drawn through one injected
// ScoreCache. The sweep's cells ride the pool's High priority lane, so
// figure-critical work drains before any other (Normal) tasks a host
// process may have queued.
//
// With --cache-dir DIR the cache layers are warm-started from a journaled
// store a previous run filled (self-invalidating via the scoring-pipeline
// hash) and publish back to it, so a second run is mostly cache hits — the
// warm-start speedup is recorded in BENCH_figures.json and visible in the
// CI bench job's logs. With
// --spec FILE the sweep covers a declarative subset instead of the full
// paper matrix.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "eval/classify.hpp"
#include "eval/report.hpp"
#include "eval/shard.hpp"
#include "minic/engine.hpp"
#include "support/cachestore.hpp"
#include "support/io.hpp"
#include "support/par.hpp"
#include "support/strings.hpp"

using namespace pareval;
using support::Json;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --spec FILE        declarative sweep spec (JSON); exclusive with\n"
      "                     --samples/--seed\n"
      "  --cache-dir DIR    warm-start from and publish to a journaled\n"
      "                     cache directory (cache::Store) shared with\n"
      "                     sweep_worker/sweep_merge\n"
      "  --cache-stats FILE write per-layer cache stats (score / builds /\n"
      "                     tu / link / driver, plus per-stream journal\n"
      "                     counters when --cache-dir is given) as JSON\n"
      "                     with a pinned key order, so CI artifact\n"
      "                     diffs are stable\n"
      "  --no-score-layer   do not attach/flush the persisted score\n"
      "                     stream: every sample re-scores through a\n"
      "                     real Build stage, so warm-start benches\n"
      "                     measure the Build layers (TU / object /\n"
      "                     link caches) instead of score memoization\n"
      "  --no-object-layer  disable the warm-object store (serialized\n"
      "                     TU objects + link cache): persisted TU\n"
      "                     entries revalidate but successful TUs\n"
      "                     recompile from source — the TU-warm\n"
      "                     baseline the object-warm bench pass is\n"
      "                     gated against\n"
      "  --samples N        samples per cell (default: 25)\n"
      "  --seed S           base RNG seed (default: 1070)\n"
      "  --engine E         Execute-stage engine: interp (default) or vm\n"
      "                     (bytecode; bit-identical figures, faster).\n"
      "                     Recorded in the timing JSON's context\n"
      "  --out FILE         timing JSON (default: BENCH_figures.json)\n"
      "  --print-cache-key  print the scoring-pipeline hash and exit\n",
      argv0);
  return 2;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string cache_dir;
  std::string cache_stats_path;
  std::string spec_path;
  std::string out_path = "BENCH_figures.json";
  int samples = 25;
  std::uint64_t seed = 1070;
  minic::EngineKind engine = minic::EngineKind::Interp;
  bool samples_set = false, seed_set = false;
  bool no_score_layer = false;
  bool no_object_layer = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-cache-key") {
      std::printf("%s\n",
                  support::u64_to_hex(eval::scoring_pipeline_hash())
                      .c_str());
      return 0;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--cache-stats" && i + 1 < argc) {
      cache_stats_path = argv[++i];
    } else if (arg == "--no-score-layer") {
      no_score_layer = true;
    } else if (arg == "--no-object-layer") {
      no_object_layer = true;
    } else if (arg == "--samples" && i + 1 < argc) {
      if (!tools::parse_int(argv[++i], &samples)) return usage(argv[0]);
      samples_set = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!tools::parse_seed(argv[++i], &seed)) return usage(argv[0]);
      seed_set = true;
    } else if (arg == "--engine" && i + 1 < argc) {
      if (!tools::parse_engine_flag("bench_figures", argv[++i], &engine)) {
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (samples < 1) return usage(argv[0]);
  if (!spec_path.empty() && (samples_set || seed_set)) {
    std::fprintf(stderr,
                 "bench_figures: --spec is exclusive with --samples/--seed "
                 "(the spec declares them)\n");
    return 2;
  }

  const eval::Suite& suite = eval::Suite::paper();
  eval::SweepSpec spec;
  if (!spec_path.empty()) {
    if (!tools::load_spec_flag("bench_figures", spec_path, suite, &spec)) {
      return 2;
    }
  } else {
    spec = eval::SweepSpec::paper();
    spec.samples_per_task = samples;
    spec.seed = seed;
  }

  // Injected cache: this process's scores go through one local instance
  // handed to the harness via HarnessConfig, not the process-wide global.
  eval::ScoreCache cache;
  eval::HarnessConfig config;
  config.score_cache = &cache;
  config.engine = engine;
  config.high_priority = true;  // figure-critical cells drain first

  if (no_object_layer) cache.enable_object_layer(false);

  bool preloaded = false;
  bool tu_preloaded = false;
  std::size_t loaded_entries = 0;
  std::optional<cache::Store> store;
  if (!cache_dir.empty()) {
    if (!tools::open_cache_dir("bench_figures", cache_dir, store)) return 1;
    const std::uint64_t version = eval::scoring_pipeline_hash();
    if (no_score_layer) {
      // Build-layer bench mode: the score stream is withheld, so every
      // sample pays a real Build stage against whatever the TU / object /
      // link streams hold.
      tu_preloaded = cache.tus().attach(*store, version);
      cache.links().attach(*store, version);
    } else {
      preloaded = cache.attach(*store, version);
      loaded_entries = preloaded ? cache.size() : 0;
      // Already bound by cache.attach: replays nothing, returns the TU
      // streams' warm flag.
      tu_preloaded = cache.tus().attach(*store, version);
    }
    tools::print_cache_banner(
        *store, cache,
        no_score_layer ? "withheld (--no-score-layer)"
                       : (preloaded ? "warm" : "cold"));
  }

  // One sweep over the whole spec; every figure below reads from it.
  const auto t_sweep = std::chrono::steady_clock::now();
  std::printf("sweeping spec %s (%zu cells, N=%d, engine %s)...\n",
              support::u64_to_hex(eval::spec_hash(spec)).c_str(),
              eval::sweep_cells(suite, spec).size(), spec.samples_per_task,
              minic::engine_key(engine));
  const std::vector<eval::TaskResult> all =
      eval::run_sweep(suite, spec, config);
  const double sweep_ms = ms_since(t_sweep);
  std::printf("\nsweep: %.1f ms, score layer %zu hits / %zu misses, "
              "build layer %zu hits / %zu misses (%zu builds performed), "
              "TU layer %zu+%zu hits / %zu misses (%zu TU compiles, %zu "
              "plan hits)\n\n",
              sweep_ms, cache.hits(), cache.misses(),
              cache.builds().hits(), cache.builds().misses(),
              cache.builds().misses(), cache.tus().hits(),
              cache.tus().persisted_hits(), cache.tus().misses(),
              cache.tus().misses(), cache.tus().plan_hits());

  const auto t_reports = std::chrono::steady_clock::now();
  std::printf("%s\n",
              eval::stage_breakdown_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::figure2_reports(suite, spec, all).c_str());
  const auto t_classify = std::chrono::steady_clock::now();
  const auto classification = eval::classify_failures(all);
  const double classify_ms = ms_since(t_classify);
  std::printf("%s\n",
              eval::figure3_report(suite, spec, classification).c_str());
  std::printf("%s\n", eval::figure4_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::figure5_report(suite, spec, all).c_str());
  std::printf("%s\n", eval::table1_report(suite).c_str());
  std::printf("%s\n", eval::table2_report(suite, all).c_str());
  const double reports_ms = ms_since(t_reports);
  // Classification is the largest share of reports_ms. DBSCAN runs over
  // distinct embeddings and identical logs embed identically, so the
  // distinct count sizes the clustering.
  std::unordered_set<std::string_view> distinct_logs;
  for (const auto& cl : classification.logs) distinct_logs.insert(cl.log);
  std::printf("classify: %.1f ms of %.1f ms reports, %zu failure logs, "
              "%zu distinct\n",
              classify_ms, reports_ms, classification.logs.size(),
              distinct_logs.size());

  if (store.has_value()) {
    std::printf("flushed %zu records to %s\n", cache.flush(),
                cache_dir.c_str());
  }

  Json root = Json::object();
  Json context = Json::object();
  context.set("samples_per_task", spec.samples_per_task);
  context.set("spec_hash", support::u64_to_hex(eval::spec_hash(spec)));
  context.set("spec_file", spec_path);
  context.set("engine", minic::engine_key(engine));
  context.set("threads",
              static_cast<long long>(support::hardware_threads()));
  context.set("cache_dir", cache_dir);
  context.set("cache_preloaded", preloaded);
  context.set("cache_entries_loaded",
              static_cast<long long>(loaded_entries));
  context.set("tu_cache_preloaded", tu_preloaded);
  context.set("score_layer", !no_score_layer);
  context.set("object_layer", !no_object_layer);
  root.set("context", std::move(context));

  if (!cache_stats_path.empty()) {
    // The whole cache stack's stats() — the same object sweep_server's
    // status reports, keys in a pinned order so the CACHE_stats.json CI
    // artifact diffs cleanly run over run — plus this run's keys.
    Json stats = cache.stats();
    stats.set("cache_dir", cache_dir);
    stats.set("cache_preloaded", preloaded);
    stats.set("tu_cache_preloaded", tu_preloaded);
    stats.set("build_wall_ms",
              static_cast<double>(eval::build_stage_nanos()) / 1e6);
    stats.set("wall_ms", sweep_ms);
    // Atomic: the CI jq gate reads this artifact, so a torn or truncated
    // write must never be published.
    if (!support::atomic_write_file(cache_stats_path,
                                    stats.dump() + '\n')) {
      std::fprintf(stderr, "bench_figures: cannot write %s\n",
                   cache_stats_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cache_stats_path.c_str());
  }
  Json benchmarks = Json::array();
  auto bench_entry = [](const char* name, double ms) {
    Json b = Json::object();
    b.set("name", name);
    b.set("real_time", ms);
    b.set("time_unit", "ms");
    return b;
  };
  benchmarks.push_back(bench_entry("figures_sweep", sweep_ms));
  benchmarks.push_back(bench_entry("figures_reports", reports_ms));
  benchmarks.push_back(bench_entry("figures_classify", classify_ms));
  benchmarks.push_back(bench_entry("figures_total", sweep_ms + reports_ms));
  // Wall time inside ScoringPipeline::build_stage alone — what the
  // object-warm bench passes compare (scores are bit-identical across
  // cold / TU-warm / object-warm, only Build cost moves).
  benchmarks.push_back(bench_entry(
      "figures_build_stage",
      static_cast<double>(eval::build_stage_nanos()) / 1e6));
  root.set("benchmarks", std::move(benchmarks));

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_figures: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << root.dump() << '\n';
  std::printf("wrote %s (sweep %.1f ms, %zu hits / %zu misses%s)\n",
              out_path.c_str(), sweep_ms, cache.hits(), cache.misses(),
              preloaded ? ", warm start" : "");
  return out.good() ? 0 : 1;
}
