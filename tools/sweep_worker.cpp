// sweep_worker: run one shard of a (suite, spec) sweep's (cell × sample)
// matrix and write the per-sample records as a shard file for sweep_merge.
//
// One CI job / host runs:
//   sweep_worker --spec spec.json --shard-index $i --shard-count $K --out shard-$i.json
// and the fan-in job recombines the K files with sweep_merge. Merging is
// bit-identical to a single-process run_sweep for any K (derived
// per-sample RNG streams + sample-index-order aggregation). Every shard
// file embeds the spec and its hash, so the merger refuses shards of a
// different sweep.
//
// Without --spec, the classic flags (--pair/--samples/--seed) build the
// paper's default spec, optionally restricted to one pair.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "eval/shard.hpp"
#include "support/cachestore.hpp"
#include "support/strings.hpp"

using namespace pareval;
using tools::parse_int;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard-index I --shard-count K [options]\n"
      "  --spec FILE          declarative sweep spec (JSON); exclusive\n"
      "                       with --pair/--samples/--seed\n"
      "  --pair <index|all>   pair to sweep (default: all)\n"
      "  --samples N          samples per cell (default: 25)\n"
      "  --seed S             base RNG seed (default: 1070)\n"
      "  --threads T          1 = serial; otherwise the global pool\n"
      "  --engine E           Execute-stage engine: interp (default) or\n"
      "                       vm (bytecode; bit-identical scores, faster).\n"
      "                       Recorded in the shard file; sweep_merge\n"
      "                       refuses to combine mixed-engine shards\n"
      "  --cache-dir DIR      warm-start from and publish to a shared\n"
      "                       journaled cache directory (cache::Store).\n"
      "                       Any number of workers may share one DIR\n"
      "                       concurrently; no merge step is needed\n"
      "  --out FILE           shard file to write (default: shard.json)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int shard_index = -1;
  int shard_count = 0;
  std::string pair_arg;
  std::string spec_path;
  std::string out_path = "shard.json";
  std::string cache_dir;
  bool samples_set = false, seed_set = false;
  // The classic flags edit the paper's default spec; --spec replaces it.
  eval::SweepSpec spec = eval::SweepSpec::paper();
  eval::HarnessConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    int parsed = 0;
    if (arg == "--shard-index" && (v = value()) && parse_int(v, &parsed)) {
      shard_index = parsed;
    } else if (arg == "--shard-count" && (v = value()) &&
               parse_int(v, &parsed)) {
      shard_count = parsed;
    } else if (arg == "--spec" && (v = value())) {
      spec_path = v;
    } else if (arg == "--pair" && (v = value())) {
      pair_arg = v;
    } else if (arg == "--samples" && (v = value()) &&
               parse_int(v, &parsed)) {
      spec.samples_per_task = parsed;
      samples_set = true;
    } else if (arg == "--seed" && (v = value()) &&
               tools::parse_seed(v, &spec.seed)) {
      seed_set = true;
    } else if (arg == "--threads" && (v = value()) &&
               parse_int(v, &parsed) && parsed >= 0) {
      config.threads = static_cast<unsigned>(parsed);
    } else if (arg == "--engine" && (v = value())) {
      if (!tools::parse_engine_flag("sweep_worker", v, &config.engine)) {
        return 2;
      }
    } else if (arg == "--cache-dir" && (v = value())) {
      cache_dir = v;
    } else if (arg == "--out" && (v = value())) {
      out_path = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (shard_index < 0 || shard_count < 1 || shard_index >= shard_count ||
      spec.samples_per_task < 1) {
    return usage(argv[0]);
  }
  if (!spec_path.empty() && (!pair_arg.empty() || samples_set || seed_set)) {
    std::fprintf(stderr,
                 "sweep_worker: --spec is exclusive with --pair/--samples/"
                 "--seed (the spec declares them)\n");
    return 2;
  }

  const eval::Suite& suite = eval::Suite::paper();
  if (!spec_path.empty()) {
    if (!tools::load_spec_flag("sweep_worker", spec_path, suite, &spec)) {
      return 2;
    }
  } else {
    if (!pair_arg.empty() && pair_arg != "all") {
      int index = -1;
      if (!parse_int(pair_arg.c_str(), &index) || index < 0 ||
          static_cast<std::size_t>(index) >= suite.pairs().size()) {
        std::fprintf(stderr,
                     "sweep_worker: --pair must be 0..%zu or 'all'\n",
                     suite.pairs().size() - 1);
        return 2;
      }
      spec.pairs = {
          llm::pair_key(suite.pairs()[static_cast<std::size_t>(index)])};
    }
    const std::string invalid = spec.validate(suite);
    if (!invalid.empty()) {
      std::fprintf(stderr, "sweep_worker: invalid spec: %s\n",
                   invalid.c_str());
      return 2;
    }
  }

  std::optional<cache::Store> store;
  eval::ScoreCache cache;
  config.score_cache = &cache;
  if (!cache_dir.empty()) {
    if (!tools::open_cache_dir("sweep_worker", cache_dir, store)) return 1;
    const bool warm = cache.attach(*store, eval::scoring_pipeline_hash());
    tools::print_cache_banner(*store, cache, warm ? "warm" : "cold");
  }

  std::printf("shard %d/%d of spec %s (%zu cells, N=%d, engine %s)...\n",
              shard_index, shard_count,
              support::u64_to_hex(eval::spec_hash(spec)).c_str(),
              eval::sweep_cells(suite, spec).size(), spec.samples_per_task,
              minic::engine_key(config.engine));
  const eval::ShardResult shard =
      eval::run_shard(suite, spec, shard_index, shard_count, config);
  std::printf("  %zu sample records\n", shard.records.size());

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "sweep_worker: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << eval::shard_file_text({shard});
  if (!out.good()) {
    std::fprintf(stderr, "sweep_worker: write to %s failed\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (store.has_value()) {
    const std::size_t records = cache.flush();
    std::printf(
        "flushed %zu records to %s (score layer %zu hits / %zu misses, "
        "build layer %zu hits / %zu misses, TU layer %zu+%zu hits / %zu "
        "misses, link layer %zu+%zu hits / %zu misses this run)\n",
        records, cache_dir.c_str(), cache.hits(), cache.misses(),
        cache.builds().hits(), cache.builds().misses(), cache.tus().hits(),
        cache.tus().persisted_hits(), cache.tus().misses(),
        cache.links().hits(), cache.links().persisted_hits(),
        cache.links().misses());
  }
  return 0;
}
