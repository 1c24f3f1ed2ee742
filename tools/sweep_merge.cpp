// sweep_merge: fan-in for sweep_worker shards. Recombines the per-sample
// records of K shard files into per-cell TaskResults (bit-identical to a
// single-process sweep), writes the merged sweep as JSON figure input, and
// optionally re-runs the sweep in-process to enforce the determinism
// guarantee (--verify, used by the CI fan-in job).
//
// Every shard embeds the SweepSpec it ran plus its spec_hash; all inputs
// must agree on that hash (and on --spec FILE when given) or the merge is
// refused — shards of different sweeps can never be silently recombined.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "execsim/driver.hpp"
#include "eval/report.hpp"
#include "eval/shard.hpp"
#include "minic/engine.hpp"
#include "support/cachestore.hpp"
#include "support/strings.hpp"

using namespace pareval;
using support::Json;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--spec spec.json] [--out merged.json] [--report] "
      "[--verify] shard1.json [shard2.json ...]\n"
      "  --spec FILE         require every shard to match this spec (hash "
      "check)\n"
      "  --engine E          require every shard to have run under this\n"
      "                      Execute-stage engine ('interp' or 'vm');\n"
      "                      without it any uniform engine is accepted\n"
      "  --out FILE          write the merged sweep (default: merged.json)\n"
      "  --report            print the figure reports off the merged sweep\n"
      "  --verify            re-run the sweep in-process seven ways —\n"
      "                      uncached, staged-cached (TU layer off),\n"
      "                      TU-cached, and, off a cache::Store the\n"
      "                      TU-cached run is flushed to and compacted:\n"
      "                      score-cold/TU-warm-store (TU streams only,\n"
      "                      object layer off: Build stages reconstruct\n"
      "                      failed plans/TUs and recompile successful\n"
      "                      ones), journal-warm (every stream replayed,\n"
      "                      Build stage skipped), object-warm (only the\n"
      "                      TU-object + link-table streams replayed —\n"
      "                      every sample re-scores but zero sources are\n"
      "                      parsed and zero programs linked; the VM\n"
      "                      still compiles its chunks lazily); and\n"
      "                      uncached under the bytecode-VM engine —\n"
      "                      and fail unless shards and every reference\n"
      "                      run are bit-identical. With --cache-dir, an\n"
      "                      eighth store-warm reference replays the\n"
      "                      shared directory the workers wrote\n"
      "  --cache-dir DIR     the shared journaled cache directory\n"
      "                      (cache::Store) this merge verifies against\n"
      "                      and publishes to; skipped when --verify fails\n"
      "  --import-cache-dir DIR  fold another store's streams (e.g. a\n"
      "                      per-worker journal dir) into --cache-dir\n"
      "                      (repeat per worker)\n"
      "All shards must come from ONE spec; to cover several pairs in one\n"
      "merge, select them in one spec (or --pair all) instead of merging\n"
      "separate per-pair sweeps.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "merged.json";
  std::string spec_path;
  std::string engine_arg;
  std::string cache_dir;
  std::vector<std::string> import_dirs;
  bool report = false;
  bool verify = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--engine" && i + 1 < argc) {
      engine_arg = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir = argv[++i];
    } else if (arg == "--import-cache-dir" && i + 1 < argc) {
      import_dirs.push_back(argv[++i]);
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);
  if (!import_dirs.empty() && cache_dir.empty()) {
    std::fprintf(stderr,
                 "sweep_merge: --import-cache-dir requires --cache-dir "
                 "DIR\n");
    return 2;
  }

  std::vector<eval::ShardResult> shards;
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "sweep_merge: cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<eval::ShardResult> parsed;
    std::string error;
    if (!eval::parse_shard_file(buf.str(), &parsed, &error)) {
      std::fprintf(stderr, "sweep_merge: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    for (auto& shard : parsed) shards.push_back(std::move(shard));
  }

  // --engine pins the fleet's engine explicitly; merge_shards separately
  // rejects any *mixed* set even without the flag.
  if (!engine_arg.empty()) {
    minic::EngineKind required_kind = minic::EngineKind::Interp;
    if (!tools::parse_engine_flag("sweep_merge", engine_arg.c_str(),
                                  &required_kind)) {
      return 2;
    }
    const std::optional<minic::EngineKind> required = required_kind;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].engine != *required) {
        std::fprintf(stderr,
                     "sweep_merge: shard %d ran under engine '%s' but "
                     "--engine %s was required\n",
                     shards[i].shard_index,
                     minic::engine_key(shards[i].engine),
                     minic::engine_key(*required));
        return 1;
      }
    }
  }

  // The authoritative spec: --spec FILE when given, else the first
  // shard's embedded copy. merge_shards rejects any shard whose hash
  // disagrees with it.
  const eval::Suite& suite = eval::Suite::paper();
  eval::SweepSpec spec;
  if (!spec_path.empty()) {
    if (!tools::load_spec_flag("sweep_merge", spec_path, suite, &spec)) {
      return 1;
    }
  } else {
    spec = shards.front().spec;
    const std::string invalid = spec.validate(suite);
    if (!invalid.empty()) {
      std::fprintf(stderr, "sweep_merge: invalid spec: %s\n",
                   invalid.c_str());
      return 1;
    }
  }

  std::vector<eval::TaskResult> tasks;
  try {
    tasks = eval::merge_shards(suite, spec, shards);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_merge: %s\n", e.what());
    return 1;
  }
  std::printf("spec %s: merged %zu shards -> %zu cells\n",
              support::u64_to_hex(eval::spec_hash(spec)).c_str(),
              shards.size(), tasks.size());

  int mismatches = 0;
  if (verify) {
    // Seven in-process references: uncached, staged two-layer cache (TU
    // layer off), TU-cached (all layers), and three starts off a
    // cache::Store the TU-cached run is flushed to and compacted —
    // score-cold/TU-warm-store (only the TU streams, object layer off:
    // persisted failed plans/TUs reconstruct and successful outcome-only
    // entries recompile and upgrade in place during real Build stages),
    // journal-warm (all five streams replayed, links included; Build
    // skipped), and object-warm (only the TU-object + link streams
    // replayed — every sample re-scores, but the warm-object store must
    // satisfy every Build with zero parses and zero links) — plus an
    // uncached run under the bytecode-VM engine. Shards and all seven
    // runs must be bit-identical — the CI gate that proves distribution,
    // every cache layer (live, journaled, or serialized objects), and the
    // alternate execution engine are all pure memoization / pure
    // reimplementation.
    const auto reference = eval::run_sweep(suite, spec);
    const bool identical = reference == tasks;
    std::printf("determinism (merged vs uncached single-process): %s\n",
                identical ? "IDENTICAL" : "MISMATCH");
    if (!identical) ++mismatches;

    eval::ScoreCache staged;
    staged.enable_tu_layer(false);
    eval::HarnessConfig cached;
    cached.score_cache = &staged;
    const auto staged_reference = eval::run_sweep(suite, spec, cached);
    const bool staged_identical = staged_reference == reference;
    std::printf(
        "determinism (staged-cached vs uncached): %s (score layer %zu "
        "hits / %zu misses, build layer %zu hits / %zu misses)\n",
        staged_identical ? "IDENTICAL" : "MISMATCH", staged.hits(),
        staged.misses(), staged.builds().hits(), staged.builds().misses());
    if (!staged_identical) ++mismatches;

    eval::ScoreCache tu_cached;
    cached.score_cache = &tu_cached;
    const auto tu_reference = eval::run_sweep(suite, spec, cached);
    const bool tu_identical = tu_reference == reference;
    std::printf(
        "determinism (TU-cached vs uncached): %s (TU layer %zu hits / "
        "%zu misses, %zu plan hits, dedupe %zu/%zu)\n",
        tu_identical ? "IDENTICAL" : "MISMATCH", tu_cached.tus().hits(),
        tu_cached.tus().misses(), tu_cached.tus().plan_hits(),
        tu_cached.tus().lookups() - tu_cached.tus().misses(),
        tu_cached.tus().lookups());
    if (!tu_identical) ++mismatches;

    const std::uint64_t pipeline_version =
        eval::scoring_pipeline_hash(suite);

    // The store-backed references: flush the TU-cached run's layers into
    // a throwaway cache::Store, compacting every stream (so each replay
    // crosses a generation bump), and replay it into fresh caches through
    // separate Store instances.
    {
      const std::string store_dir = out_path + ".verify-store";
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
      cache::Store writer(store_dir);
      bool store_built = writer.open();
      if (store_built) {
        // Threshold 0: each layer's flush compacts every stream it
        // appended to. A stream that got records but no compaction fails
        // the build.
        writer.set_compact_threshold(0);
        tu_cached.attach(writer, pipeline_version);
        tu_cached.flush();
        const Json stats = tu_cached.stats();
        for (const auto& [layer, block] : stats.members()) {
          for (const auto& [key, journal] : block.members()) {
            if (key.ends_with("journal") &&
                journal["records_appended"].as_int() > 0 &&
                journal["compactions"].as_int() == 0) {
              store_built = false;
            }
          }
        }
      }
      if (!store_built) {
        std::fprintf(stderr,
                     "sweep_merge: could not build the journal-warm "
                     "verify store\n");
        ++mismatches;
      } else {
        // Score-cold/TU-warm reference: only the TU layer attaches, with
        // the object layer off, so Build stages actually run against the
        // persisted outcomes — failed plans and failed TUs must
        // reconstruct bit-identically, and successful outcome-only
        // entries recompile and upgrade in place. (The obj1 payloads the
        // TU attach also replays stay unused with the object layer off.)
        cache::Store tu_reader(store_dir);
        eval::ScoreCache tu_warm;
        tu_warm.enable_object_layer(false);
        if (!tu_warm.tus().attach(tu_reader, pipeline_version)) {
          std::fprintf(stderr,
                       "sweep_merge: could not replay the TU-warm verify "
                       "store\n");
          ++mismatches;
        } else {
          cached.score_cache = &tu_warm;
          const auto tu_warm_reference = eval::run_sweep(suite, spec, cached);
          const bool tu_warm_identical = tu_warm_reference == reference;
          std::printf(
              "determinism (score-cold/TU-warm-store vs uncached): %s (%zu "
              "plan hits, %zu persisted TU hits, %zu TU compiles)\n",
              tu_warm_identical ? "IDENTICAL" : "MISMATCH",
              tu_warm.tus().plan_hits(), tu_warm.tus().persisted_hits(),
              tu_warm.tus().misses());
          if (!tu_warm_identical) ++mismatches;
        }

        cache::Store reader(store_dir);
        eval::ScoreCache journal_warm;
        if (!journal_warm.attach(reader, pipeline_version)) {
          std::fprintf(stderr,
                       "sweep_merge: could not replay the journal-warm "
                       "verify store\n");
          ++mismatches;
        } else {
          cached.score_cache = &journal_warm;
          const auto journal_reference =
              eval::run_sweep(suite, spec, cached);
          const bool journal_identical = journal_reference == reference;
          const bool build_skipped =
              journal_warm.builds().misses() == 0 &&
              journal_warm.tus().misses() == 0;
          std::printf(
              "determinism (journal-warm-store vs uncached): %s (score "
              "layer %zu hits / %zu misses; Build stage %s: %zu builds, "
              "%zu TU compiles; score stream gen %lld)\n",
              journal_identical ? "IDENTICAL" : "MISMATCH",
              journal_warm.hits(), journal_warm.misses(),
              build_skipped ? "SKIPPED" : "NOT SKIPPED",
              journal_warm.builds().misses(), journal_warm.tus().misses(),
              journal_warm.stats()["score"]["journal"]["generation"]
                  .as_int());
          if (!journal_identical || !build_skipped) ++mismatches;
        }

        // Object-warm reference: replay ONLY the build-side streams —
        // TU objects (+ plans) and the link cache; the score stream is
        // deliberately withheld. Every sample re-scores through a real
        // Build stage, but the warm-object store must satisfy all of it:
        // zero fresh TU compiles, zero source parses, zero link_tus
        // calls (measured by the process-wide driver counters).
        cache::Store obj_reader(store_dir);
        eval::ScoreCache object_warm;
        if (!object_warm.tus().attach(obj_reader, pipeline_version) ||
            !object_warm.links().attach(obj_reader, pipeline_version)) {
          std::fprintf(stderr,
                       "sweep_merge: could not replay the object-warm "
                       "verify store\n");
          ++mismatches;
        } else {
          const execsim::DriverCounters before = execsim::driver_counters();
          cached.score_cache = &object_warm;
          const auto object_reference = eval::run_sweep(suite, spec, cached);
          const execsim::DriverCounters after = execsim::driver_counters();
          const bool object_identical = object_reference == reference;
          const std::uint64_t parses = after.parses - before.parses;
          const std::uint64_t links = after.links - before.links;
          const bool build_warm = object_warm.tus().misses() == 0 &&
                                  parses == 0 && links == 0;
          std::printf(
              "determinism (object-warm-store vs uncached): %s (Build "
              "stage %s: %zu TU compiles, %llu parses, %llu links; %zu "
              "object hits, %zu link-cache hits)\n",
              object_identical ? "IDENTICAL" : "MISMATCH",
              build_warm ? "OBJECT-WARM" : "NOT OBJECT-WARM",
              object_warm.tus().misses(),
              static_cast<unsigned long long>(parses),
              static_cast<unsigned long long>(links),
              object_warm.tus().obj_hits(),
              object_warm.links().hits() +
                  object_warm.links().persisted_hits());
          if (!object_identical || !build_warm) ++mismatches;
        }
      }
      std::filesystem::remove_all(store_dir, ec);
    }

    // Store-warm reference: when this merge verifies a shared cache
    // directory the workers published into, replay all five of its
    // streams into a fresh cache and re-run — the end-to-end proof that
    // N concurrent writers plus a journal-warm start stay bit-identical
    // to the single-process uncached sweep.
    if (!cache_dir.empty()) {
      cache::Store shared(cache_dir);
      eval::ScoreCache store_warm;
      const bool warm_scores = store_warm.attach(shared, pipeline_version);
      cached.score_cache = &store_warm;
      const auto store_reference = eval::run_sweep(suite, spec, cached);
      const bool store_identical = store_reference == reference;
      std::printf(
          "determinism (store-warm %s vs uncached): %s (score stream %s "
          "with %zu entries; score layer %zu hits / %zu misses)\n",
          cache_dir.c_str(), store_identical ? "IDENTICAL" : "MISMATCH",
          warm_scores ? "warm" : "cold", store_warm.size(),
          store_warm.hits(), store_warm.misses());
      if (!store_identical) ++mismatches;
    }

    // Engine cross-check: the same sweep, uncached, but with every
    // Execute stage run by the bytecode VM instead of the tree-walking
    // interpreter. The two engines are required to be bit-identical on
    // scores, diags, and run stats, so any divergence is a VM (or
    // interpreter) bug, not noise.
    eval::HarnessConfig vm_uncached;
    vm_uncached.engine = minic::EngineKind::Vm;
    const auto vm_reference = eval::run_sweep(suite, spec, vm_uncached);
    const bool vm_identical = vm_reference == reference;
    std::printf("determinism (vm engine vs interpreter, both uncached): "
                "%s\n",
                vm_identical ? "IDENTICAL" : "MISMATCH");
    if (!vm_identical) ++mismatches;
  }

  // The shared merged-sweep builder — the same document the sweep
  // client folds a server job into, which is what makes the two paths
  // byte-comparable with cmp.
  const Json merged = eval::merged_sweep_json(
      suite, spec, shards.empty() ? 0 : shards.front().shard_count, tasks);

  if (report) {
    std::printf("%s\n",
                eval::stage_breakdown_report(suite, spec, tasks).c_str());
    std::printf("%s", eval::figure2_reports(suite, spec, tasks).c_str());
    // Cross-pair figures off the union of all merged tasks.
    std::printf("%s", eval::figure4_report(suite, spec, tasks).c_str());
    std::printf("%s", eval::figure5_report(suite, spec, tasks).c_str());
    std::printf("%s", eval::table2_report(suite, tasks).c_str());
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "sweep_merge: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << merged.dump() << '\n';
  if (!out.good()) {
    std::fprintf(stderr, "sweep_merge: write to %s failed\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Fold per-worker journal dirs into the shared store. With one shared
  // --cache-dir the workers already appended directly and this is a
  // cheap no-op pass (import finds nothing unpublished); with per-worker
  // dirs (artifact fan-in) it replays each worker's streams and appends
  // only the records the shared store does not hold yet. Never publish
  // from a run that failed verification.
  if (!cache_dir.empty() && mismatches > 0) {
    std::fprintf(stderr,
                 "sweep_merge: verification failed — not publishing %s\n",
                 cache_dir.c_str());
  }
  if (!cache_dir.empty() && mismatches == 0) {
    const std::uint64_t pipeline_version = eval::scoring_pipeline_hash();
    cache::Store target(cache_dir);
    if (!target.open()) {
      std::fprintf(stderr, "sweep_merge: cannot create cache dir %s\n",
                   cache_dir.c_str());
      return 1;
    }
    eval::ScoreCache fold;
    fold.attach(target, pipeline_version);
    std::size_t imported = 0;
    for (const std::string& dir : import_dirs) {
      cache::Store source(dir);
      if (fold.import_store(source, pipeline_version)) {
        ++imported;
      } else {
        std::fprintf(stderr,
                     "sweep_merge: skipping stale/unreadable cache dir "
                     "%s\n",
                     dir.c_str());
      }
    }
    const std::size_t appended = fold.flush();
    std::printf(
        "folded %zu/%zu worker cache dirs into %s (%zu new records; %zu "
        "scores, %zu TUs, %zu plans, %zu links total)\n",
        imported, import_dirs.size(), cache_dir.c_str(), appended,
        fold.size(), fold.tus().size(), fold.tus().plan_count(),
        fold.links().size());
  }

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "sweep_merge: merged sweep diverged from the "
                 "single-process reference\n");
    return 1;
  }
  return 0;
}
