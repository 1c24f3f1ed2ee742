// Micro benchmarks (google-benchmark) for the substrates: interpreter
// throughput, translation engine, build simulator, DBSCAN, word2vec and
// the pass@k estimator — plus a serial-vs-parallel sweep timing section
// that emits machine-readable JSON (BENCH_sweep.json) so the orchestrator's
// speedup is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "cluster/dbscan.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"
#include "execsim/driver.hpp"
#include "execsim/registry.hpp"
#include "minic/bytecode.hpp"
#include "minic/objcodec.hpp"
#include "minic/runio.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"
#include "text/word2vec.hpp"
#include "translate/transpile.hpp"

using namespace pareval;

static void BM_InterpreterNanoXor(benchmark::State& state) {
  const auto* app = apps::find_app("nanoXOR");
  const auto build = buildsim::build_repo(app->repos.at(apps::Model::Cuda));
  for (auto _ : state) {
    auto run = execsim::run_executable(*build.exe, {"16", "1"});
    benchmark::DoNotOptimize(run.stdout_text);
  }
}
BENCHMARK(BM_InterpreterNanoXor);

static void BM_VmNanoXor(benchmark::State& state) {
  const auto* app = apps::find_app("nanoXOR");
  const auto build = buildsim::build_repo(app->repos.at(apps::Model::Cuda));
  for (auto _ : state) {
    auto run = execsim::run_executable(*build.exe, {"16", "1"},
                                       minic::RunLimits{},
                                       minic::EngineKind::Vm);
    benchmark::DoNotOptimize(run.stdout_text);
  }
}
BENCHMARK(BM_VmNanoXor);

static void BM_BuildSimXsbench(benchmark::State& state) {
  const auto* app = apps::find_app("XSBench");
  const auto& repo = app->repos.at(apps::Model::Cuda);
  for (auto _ : state) {
    auto result = buildsim::build_repo(repo);
    benchmark::DoNotOptimize(result.ok);
  }
}
BENCHMARK(BM_BuildSimXsbench);

// ---- warm-object codec throughput ----------------------------------------
// The persistence half of the warm-object store: serialize/deserialize
// post-sema TUs and compiled bytecode chunks, benched against the work a
// warm decode elides (parsing the source, compiling chunks from the AST).
// A decode that is not clearly cheaper than the front-end work it skips
// would make the object layer pure overhead.

static const buildsim::BuildResult& xsbench_build() {
  static const buildsim::BuildResult build = buildsim::build_repo(
      apps::find_app("XSBench")->repos.at(apps::Model::Cuda));
  return build;
}

static void BM_TuSerialize(benchmark::State& state) {
  const auto& tu = *xsbench_build().exe->program.tus.front();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string payload = minic::encode_tu(tu);
    bytes = static_cast<std::int64_t>(payload.size());
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_TuSerialize);

static void BM_TuDeserialize(benchmark::State& state) {
  const std::string payload =
      minic::encode_tu(*xsbench_build().exe->program.tus.front());
  for (auto _ : state) {
    auto tu = minic::decode_tu(payload);
    benchmark::DoNotOptimize(tu.get());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_TuDeserialize);

static void BM_TuParseCompile(benchmark::State& state) {
  // The work BM_TuDeserialize replaces: front-end parse + sema of the
  // same source the serialized TU came from.
  const auto* app = apps::find_app("XSBench");
  const auto& repo = app->repos.at(apps::Model::Cuda);
  std::string source;
  for (const auto& path : repo.paths()) {
    const std::string ext = vfs::extension(path);
    if (ext == ".cu" || ext == ".c" || ext == ".cpp") {
      source = path;
      break;
    }
  }
  const minic::Capabilities caps = xsbench_build().caps;
  for (auto _ : state) {
    auto tu = execsim::compile_tu(repo, source, caps);
    benchmark::DoNotOptimize(tu.get());
  }
}
BENCHMARK(BM_TuParseCompile);

static void BM_ChunkCompile(benchmark::State& state) {
  // Baseline for the chunk codec: compile every function's bytecode from
  // the linked AST (what a VM run pays on a cold ChunkPack).
  const auto& exe = *xsbench_build().exe;
  const minic::BuiltinTable builtins =
      execsim::make_builtin_table(exe.program.caps);
  for (auto _ : state) {
    minic::ChunkPack pack;
    for (const auto& [name, fn] : exe.program.functions) {
      benchmark::DoNotOptimize(
          &pack.get_or_compile(*fn, exe.program, builtins));
    }
    benchmark::DoNotOptimize(pack.size());
  }
}
BENCHMARK(BM_ChunkCompile);

static void BM_ChunkSerialize(benchmark::State& state) {
  const auto& exe = *xsbench_build().exe;
  const minic::BuiltinTable builtins =
      execsim::make_builtin_table(exe.program.caps);
  const minic::NodeTable nodes = minic::NodeTable::build(exe.program.tus);
  minic::ChunkPack pack;
  for (const auto& [name, fn] : exe.program.functions) {
    pack.get_or_compile(*fn, exe.program, builtins);
  }
  std::int64_t bytes = 0;
  for (auto _ : state) {
    minic::BinWriter w;
    for (const auto& [name, fn] : exe.program.functions) {
      minic::encode_chunk(*pack.get(fn), nodes, w);
    }
    bytes = static_cast<std::int64_t>(w.bytes().size());
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ChunkSerialize);

static void BM_ChunkDeserialize(benchmark::State& state) {
  const auto& exe = *xsbench_build().exe;
  const minic::BuiltinTable builtins =
      execsim::make_builtin_table(exe.program.caps);
  const minic::NodeTable nodes = minic::NodeTable::build(exe.program.tus);
  minic::ChunkPack pack;
  std::size_t count = 0;
  minic::BinWriter w;
  for (const auto& [name, fn] : exe.program.functions) {
    minic::encode_chunk(pack.get_or_compile(*fn, exe.program, builtins),
                        nodes, w);
    ++count;
  }
  const std::string payload = w.bytes();
  for (auto _ : state) {
    minic::BinReader r(payload);
    for (std::size_t i = 0; i < count; ++i) {
      minic::Chunk chunk;
      minic::decode_chunk(r, nodes, builtins, &chunk);
      benchmark::DoNotOptimize(chunk.code.size());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ChunkDeserialize);

static void BM_TranspileCudaToOmp(benchmark::State& state) {
  const auto* app = apps::find_app("SimpleMOC-kernel");
  for (auto _ : state) {
    xlate::TranspileLog log;
    auto repo = xlate::transpile_repo(*app, apps::Model::Cuda,
                                      apps::Model::OmpOffload, log);
    benchmark::DoNotOptimize(repo.file_count());
  }
}
BENCHMARK(BM_TranspileCudaToOmp);

static void BM_Dbscan(benchmark::State& state) {
  support::Rng rng(7);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<double> p(8);
    const double center = static_cast<double>(i % 4);
    for (auto& x : p) x = center + rng.uniform(-0.1, 0.1);
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    auto labels = cluster::dbscan(points, {0.5, 3});
    benchmark::DoNotOptimize(labels);
  }
}
BENCHMARK(BM_Dbscan)->Arg(64)->Arg(256);

// The §6.3 classifier's shape: 12-dimensional embeddings, eps 0.35,
// min_pts 2, and about 15 copies of each distinct point (the paper corpus
// has 3346 failure logs but only 221 distinct ones).
static void BM_DbscanDuplicated(benchmark::State& state) {
  support::Rng rng(7);
  std::vector<std::vector<double>> distinct;
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<double> p(12);
    const double center = static_cast<double>(i % 16) * 0.2;
    for (auto& x : p) x = center + rng.uniform(-0.1, 0.1);
    distinct.push_back(std::move(p));
  }
  std::vector<std::vector<double>> points;
  for (int copy = 0; copy < 15; ++copy) {
    for (const auto& p : distinct) points.push_back(p);
  }
  for (auto _ : state) {
    auto labels = cluster::dbscan(points, {0.35, 2});
    benchmark::DoNotOptimize(labels);
  }
}
BENCHMARK(BM_DbscanDuplicated)->Arg(221);

static void BM_Word2Vec(benchmark::State& state) {
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 40; ++i) {
    docs.push_back({"error", "undeclared", "identifier",
                    i % 2 ? "kernel" : "makefile", "line",
                    std::to_string(i % 5)});
  }
  for (auto _ : state) {
    text::Word2Vec w2v;
    text::Word2VecConfig cfg;
    cfg.epochs = 3;
    w2v.train(docs, cfg);
    benchmark::DoNotOptimize(w2v.vocabulary_size());
  }
}
BENCHMARK(BM_Word2Vec);

// The §6.3 classifier's configuration (dim 12, 6 epochs) on log-shaped
// documents: 22 distinct logs of 30 tokens over a 60-word vocabulary,
// each repeated 15 times.
static void BM_Word2VecClassifier(benchmark::State& state) {
  support::Rng rng(11);
  std::vector<std::vector<std::string>> distinct;
  for (int i = 0; i < 22; ++i) {
    std::vector<std::string> doc;
    for (int w = 0; w < 30; ++w) {
      // Skewed draw, like diagnostic text: a few words dominate.
      const auto a = rng.next_below(60);
      const auto b = rng.next_below(60);
      doc.push_back("w" + std::to_string(std::min(a, b)));
    }
    distinct.push_back(std::move(doc));
  }
  std::vector<std::vector<std::string>> docs;
  for (int copy = 0; copy < 15; ++copy) {
    docs.insert(docs.end(), distinct.begin(), distinct.end());
  }
  for (auto _ : state) {
    text::Word2Vec w2v;
    text::Word2VecConfig cfg;
    cfg.dim = 12;
    cfg.epochs = 6;
    w2v.train(docs, cfg);
    benchmark::DoNotOptimize(w2v.vocabulary_size());
  }
}
BENCHMARK(BM_Word2VecClassifier);

static void BM_PassAtK(benchmark::State& state) {
  for (auto _ : state) {
    double total = 0;
    for (int c = 0; c <= 200; ++c) total += eval::pass_at_k(200, c, 10);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PassAtK);

static void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  auto& pool = support::ThreadPool::global();
  for (auto _ : state) {
    std::vector<std::future<int>> futs;
    futs.reserve(256);
    for (int i = 0; i < 256; ++i) {
      futs.push_back(pool.submit([i] { return i * i; }));
    }
    long long sum = 0;
    for (auto& f : futs) sum += pool.await(f);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ThreadPoolSubmitDrain);

// ---- sweep orchestrator timing -------------------------------------------
// Times the same reduced pair sweep three ways and writes the result as
// google-benchmark-shaped JSON. `threads=1` is the pre-orchestrator serial
// baseline; the parallel runs use the work-stealing pool; the cached run
// repeats the parallel one against a warm ScoreCache.

namespace {

double time_sweep_ms(const eval::HarnessConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto tasks = eval::run_pair_sweep(llm::all_pairs()[0], config);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(tasks.size());
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int run_sweep_timing_section() {
  eval::HarnessConfig serial;
  serial.samples_per_task = 10;
  serial.threads = 1;
  serial.use_score_cache = false;
  eval::HarnessConfig parallel = serial;
  parallel.threads = 0;  // global pool, hardware_threads() workers
  eval::HarnessConfig cached = parallel;
  cached.use_score_cache = true;

  const unsigned threads = support::hardware_threads();
  std::printf("\n-- sweep orchestrator: serial vs parallel "
              "(N=%d, %u hardware threads) --\n",
              serial.samples_per_task, threads);
  const double serial_ms = time_sweep_ms(serial);
  const double parallel_ms = time_sweep_ms(parallel);
  eval::ScoreCache::global().clear();
  const double warmup_ms = time_sweep_ms(cached);   // fills the cache
  const double cached_ms = time_sweep_ms(cached);   // hits it
  const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  std::printf("serial   %10.1f ms\nparallel %10.1f ms  (speedup %.2fx)\n"
              "cached   %10.1f ms  (%zu hits / %zu misses)\n",
              serial_ms, parallel_ms, speedup, cached_ms,
              eval::ScoreCache::global().hits(),
              eval::ScoreCache::global().misses());

  // Verify the acceptance invariant while we have both runs' configs.
  const bool identical = eval::run_pair_sweep(llm::all_pairs()[0], serial) ==
                         eval::run_pair_sweep(llm::all_pairs()[0], parallel);
  std::printf("determinism (1 thread vs pool): %s\n",
              identical ? "IDENTICAL" : "MISMATCH");

  FILE* json = std::fopen("BENCH_sweep.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"context\": {\"threads\": %u, \"samples_per_task\": %d,\n"
        "              \"deterministic\": %s, \"warmup_ms\": %.3f},\n"
        "  \"benchmarks\": [\n"
        "    {\"name\": \"sweep_serial\", \"real_time\": %.3f, "
        "\"time_unit\": \"ms\"},\n"
        "    {\"name\": \"sweep_parallel\", \"real_time\": %.3f, "
        "\"time_unit\": \"ms\", \"speedup\": %.3f},\n"
        "    {\"name\": \"sweep_parallel_cached\", \"real_time\": %.3f, "
        "\"time_unit\": \"ms\", \"speedup\": %.3f}\n"
        "  ]\n"
        "}\n",
        threads, serial.samples_per_task, identical ? "true" : "false",
        warmup_ms, serial_ms, parallel_ms, speedup, cached_ms,
        cached_ms > 0 ? serial_ms / cached_ms : 0.0);
    std::fclose(json);
    std::printf("wrote BENCH_sweep.json\n");
  }
  return identical ? 0 : 1;
}

// ---- Execute-stage engine timing -----------------------------------------
// Interpreter vs bytecode VM over the hottest shipped (app, model)
// implementations — ranked by interpreter step count, so the comparison is
// dominated by real Execute work, not startup. Emits BENCH_vm.json; the CI
// bench job gates `execute_total.speedup > 1` (the VM must actually beat
// the tree-walking interpreter) and `context.identical` (outputs must stay
// bit-identical while doing so).

double time_execute_ms(const buildsim::BuildResult& build,
                       const apps::AppSpec& app, minic::EngineKind engine) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& tc : app.tests) {
    auto run = execsim::run_executable(*build.exe, tc.args,
                                       minic::RunLimits{}, engine);
    benchmark::DoNotOptimize(run.stdout_text);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int run_vm_timing_section() {
  struct Target {
    const apps::AppSpec* app;
    apps::Model model;
    buildsim::BuildResult build;
    std::uint64_t steps = 0;  // interpreter steps across the app's tests
    std::uint64_t tree_fallbacks = 0;  // VM fallback instrs across the reps
    double interp_ms = 0, vm_ms = 0;
  };
  constexpr std::size_t kHottest = 6;
  constexpr int kReps = 3;

  // Build every shipped implementation once and rank by Execute heat.
  std::vector<Target> targets;
  bool identical = true;
  for (const apps::AppSpec* app : apps::all_apps()) {
    for (const apps::Model m : app->available) {
      Target t{app, m, buildsim::build_repo(app->repos.at(m))};
      if (!t.build.ok) continue;
      for (const auto& tc : app->tests) {
        const auto interp = execsim::run_executable(
            *t.build.exe, tc.args, minic::RunLimits{},
            minic::EngineKind::Interp);
        const auto vm = execsim::run_executable(*t.build.exe, tc.args,
                                                minic::RunLimits{},
                                                minic::EngineKind::Vm);
        t.steps += interp.stats.steps;
        if (minic::to_json(interp).dump() != minic::to_json(vm).dump()) {
          identical = false;
          std::printf("engine MISMATCH: %s / %s\n", app->name.c_str(),
                      apps::model_key(m));
        }
      }
      targets.push_back(std::move(t));
    }
  }
  std::sort(targets.begin(), targets.end(),
            [](const Target& a, const Target& b) { return a.steps > b.steps; });
  if (targets.size() > kHottest) targets.resize(kHottest);

  std::printf("\n-- Execute engines: interpreter vs bytecode VM "
              "(%zu hottest implementations, %d reps) --\n",
              targets.size(), kReps);
  double interp_total = 0, vm_total = 0;
  std::uint64_t fallback_total = 0;
  for (Target& t : targets) {
    const std::uint64_t fb_before =
        execsim::driver_counters().tree_fallbacks;
    for (int r = 0; r < kReps; ++r) {
      t.interp_ms += time_execute_ms(t.build, *t.app, //
                                     minic::EngineKind::Interp);
      t.vm_ms += time_execute_ms(t.build, *t.app, minic::EngineKind::Vm);
    }
    t.tree_fallbacks = execsim::driver_counters().tree_fallbacks - fb_before;
    interp_total += t.interp_ms;
    vm_total += t.vm_ms;
    fallback_total += t.tree_fallbacks;
    std::printf("%-24s %-12s interp %8.1f ms   vm %8.1f ms   (%.2fx, "
                "%llu steps, %llu fallbacks)\n",
                t.app->name.c_str(), apps::model_key(t.model), t.interp_ms,
                t.vm_ms, t.vm_ms > 0 ? t.interp_ms / t.vm_ms : 0.0,
                static_cast<unsigned long long>(t.steps),
                static_cast<unsigned long long>(t.tree_fallbacks));
  }
  const double speedup = vm_total > 0 ? interp_total / vm_total : 0.0;
  std::printf("total                                 interp %8.1f ms   vm "
              "%8.1f ms   (speedup %.2fx)\n"
              "determinism (interp vs vm, full corpus): %s\n",
              interp_total, vm_total, speedup,
              identical ? "IDENTICAL" : "MISMATCH");

  FILE* json = std::fopen("BENCH_vm.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"context\": {\"repetitions\": %d, \"identical\": %s},\n"
                 "  \"benchmarks\": [\n",
                 kReps, identical ? "true" : "false");
    for (const Target& t : targets) {
      std::fprintf(json,
                   "    {\"name\": \"execute_%s_%s\", \"interp_ms\": %.3f, "
                   "\"vm_ms\": %.3f, \"speedup\": %.3f, \"steps\": %llu, "
                   "\"tree_fallbacks\": %llu, \"time_unit\": \"ms\"},\n",
                   t.app->name.c_str(), apps::model_key(t.model),
                   t.interp_ms, t.vm_ms,
                   t.vm_ms > 0 ? t.interp_ms / t.vm_ms : 0.0,
                   static_cast<unsigned long long>(t.steps),
                   static_cast<unsigned long long>(t.tree_fallbacks));
    }
    std::fprintf(json,
                 "    {\"name\": \"execute_total\", \"interp_ms\": %.3f, "
                 "\"vm_ms\": %.3f, \"speedup\": %.3f, "
                 "\"tree_fallbacks\": %llu, \"time_unit\": \"ms\"}\n"
                 "  ]\n"
                 "}\n",
                 interp_total, vm_total, speedup,
                 static_cast<unsigned long long>(fallback_total));
    std::fclose(json);
    std::printf("wrote BENCH_vm.json\n");
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int sweep_rc = run_sweep_timing_section();
  const int vm_rc = run_vm_timing_section();
  return sweep_rc != 0 ? sweep_rc : vm_rc;
}
