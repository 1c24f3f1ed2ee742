// Extensibility, the declarative way: build a Suite that registers
//   1. a new application ("picoXOR", a 1D variant of the XOR stencil that
//      the standard registry does not know about),
//   2. a custom LLM profile ("tabby-200k") with its own capability scores,
//   3. a *reverse* translation pair (OpenMP Threads -> CUDA) that the
//      paper never evaluates,
// then select a slice of it with a SweepSpec, run the sweep, and print its
// mini heat map. No harness code is touched: a new benchmark is a Suite, a
// sweep subset is a spec. Paper-suite specs work unchanged with the stock
// --spec tools; a spec naming *custom* registrations (like this one) runs
// through the same run_sweep/run_shard/merge_shards calls from a driver
// that links its suite — this file is that driver.
#include <cstdio>

#include "apps/xor_common.hpp"
#include "pareval/pareval.hpp"
#include "support/strings.hpp"

using namespace pareval;

namespace {

/// A scoreable application the standard registry does not ship: the XOR
/// stencil reduced to one dimension, with OMP-threads and CUDA sources.
apps::AppSpec make_picoxor() {
  apps::AppSpec a;
  a.name = "picoXOR";
  a.description = "1D XOR stencil; the suite-registration demo app.";
  // Reuse the 2D stencil's contract: tests, golden reference, CLI spec,
  // and ground-truth build files all transfer.
  apps::xor_fill_common(a, "picoXOR", {"src/main.cpp"}, {"src/main.cpp"});

  vfs::Repo omp;
  omp.write("Makefile",
            "CXX = g++\n"
            "CXXFLAGS = -O2 -fopenmp\n\n"
            "all: picoXOR\n\n"
            "picoXOR: src/main.cpp\n"
            "\t$(CXX) $(CXXFLAGS) src/main.cpp -o picoXOR\n\n"
            "clean:\n\trm -f picoXOR\n");
  omp.write("README.md", "# picoXOR\n\nUsage: ./picoXOR [N] [iterations]\n");
  omp.write("src/main.cpp", apps::xor_omp_main("", /*kernel_inline=*/true));
  a.repos[apps::Model::OmpThreads] = std::move(omp);

  vfs::Repo cuda;
  cuda.write("Makefile",
             "NVCC = nvcc\n"
             "NVCCFLAGS = -O2 -arch=sm_80\n\n"
             "all: picoXOR\n\n"
             "picoXOR: src/main.cu\n"
             "\t$(NVCC) $(NVCCFLAGS) src/main.cu -o picoXOR\n\n"
             "clean:\n\trm -f picoXOR\n");
  cuda.write("README.md", "# picoXOR\n\nUsage: ./picoXOR [N] [iterations]\n");
  cuda.write("src/main.cu", apps::xor_cuda_main("", /*kernel_inline=*/true));
  a.repos[apps::Model::Cuda] = std::move(cuda);
  return a;
}

}  // namespace

int main() {
  // --- 1. the suite: paper sets + one app, one LLM, one reverse pair ----
  const llm::Pair reverse{apps::Model::OmpThreads, apps::Model::Cuda};

  llm::LlmProfile tabby;
  tabby.name = "tabby-200k";
  tabby.context_tokens = 200000;
  tabby.max_output_tokens = 20000;
  tabby.usd_per_mtok_input = 0.50;
  tabby.usd_per_mtok_output = 2.00;
  tabby.topdown_context_fraction = 0.5;

  eval::Suite suite = eval::Suite::paper();  // copy, then extend
  suite.add_app(make_picoxor())
      .add_profile(tabby)
      .add_pair(reverse)
      // How capable is tabby? Without this, unknown (llm, pair) cells
      // abort for lack of paper calibration. Profile-wide default first...
      .set_profile_scores("tabby-200k",
                          {/*code_build=*/0.9, /*code_pass=*/0.7,
                           /*overall_build=*/0.8, /*overall_pass=*/0.6})
      // ...and one pinned cell to show per-cell overrides win.
      .set_cell_scores("tabby-200k", llm::Technique::NonAgentic, reverse,
                       "picoXOR",
                       {/*code_build=*/1.0, /*code_pass=*/1.0,
                        /*overall_build=*/1.0, /*overall_pass=*/1.0});

  // --- 2. the spec: a declarative slice of that suite -------------------
  eval::SweepSpec spec;
  spec.llms = {"tabby-200k"};
  spec.pairs = {llm::pair_key({apps::Model::Cuda, apps::Model::OmpOffload}),
                llm::pair_key(reverse)};
  spec.apps = {"nanoXOR", "picoXOR"};
  spec.techniques = {llm::technique_key(llm::Technique::NonAgentic)};
  spec.samples_per_task = 10;
  spec.seed = 1070;

  const std::string invalid = spec.validate(suite);
  if (!invalid.empty()) {
    std::fprintf(stderr, "invalid spec: %s\n", invalid.c_str());
    return 1;
  }
  std::printf("spec %s selects %zu cells; as JSON:\n%s\n",
              support::u64_to_hex(eval::spec_hash(spec)).c_str(),
              eval::sweep_cells(suite, spec).size(),
              eval::spec_file_text(spec).c_str());

  // --- 3. run + report ---------------------------------------------------
  eval::ScoreCache cache;  // injected, not the process-wide global
  eval::HarnessConfig config;
  config.score_cache = &cache;
  const auto tasks = eval::run_sweep(suite, spec, config);

  std::printf("%s", eval::figure2_reports(suite, spec, tasks).c_str());
  std::printf(
      "(the OMP->CUDA cells build but never pass: the harness's device "
      "check rejects translations that never launch a GPU kernel — the "
      "reference engine has no reverse-transform rules, exactly what a "
      "real reverse-pair benchmark would measure)\n");
  std::printf("\nscore cache: score layer %zu hits / %zu misses, build "
              "layer %zu hits / %zu misses\n",
              cache.hits(), cache.misses(), cache.builds().hits(),
              cache.builds().misses());

  // A custom suite persists its cache under its *own* scoring-pipeline
  // hash, so a store written here can never warm-start a sweep of a
  // different suite (and vice versa) — version-level invalidation on top
  // of the per-entry keys.
  const std::uint64_t version = eval::scoring_pipeline_hash(suite);
  std::printf("suite pipeline hash %s (paper: %s)\n",
              support::u64_to_hex(version).c_str(),
              support::u64_to_hex(eval::scoring_pipeline_hash()).c_str());
  cache::Store store("custom_suite_store");
  if (store.open()) {
    cache.attach(store, version);
    std::printf("persisted %zu cache records to custom_suite_store\n",
                cache.flush());
  }
  return 0;
}
