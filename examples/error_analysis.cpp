// Run a reduced sweep and push the failure logs through the §6.3
// classification pipeline: word2vec embeddings -> DBSCAN -> labelled
// categories. Prints the category counts and a few example logs.
#include <cstdio>

#include "pareval/pareval.hpp"

using namespace pareval;

int main() {
  eval::SweepSpec spec = eval::pair_spec(llm::all_pairs()[0]);
  spec.samples_per_task = 8;
  eval::ScoreCache cache;
  eval::HarnessConfig cfg;
  cfg.score_cache = &cache;
  std::printf("running a reduced CUDA->OpenMP Offload sweep (N=8)...\n");
  const auto tasks = eval::run_sweep(eval::Suite::paper(), spec, cfg);
  const auto result = eval::classify_failures(tasks);
  std::printf("collected %zu failure logs; DBSCAN found %d raw clusters\n",
              result.logs.size(), result.raw_clusters);
  std::printf("per-sample labels: %d exact from stage provenance, %d via "
              "the keyword fallback\n\n",
              result.provenance_exact, result.keyword_fallback);
  for (const auto& [kind, by_app] : result.counts) {
    int total = 0;
    for (const auto& [app, by_llm] : by_app) {
      for (const auto& [llm_name, n] : by_llm) total += n;
    }
    std::printf("%-36s %d\n", xlate::defect_name(kind), total);
  }
  std::printf("\nexample logs:\n");
  int shown = 0;
  for (const auto& log : result.logs) {
    if (!log.labelled || shown >= 3) continue;
    std::printf("--- [%s] %s / %s ---\n%.300s\n",
                xlate::defect_name(log.label), log.llm.c_str(),
                log.app.c_str(), log.log.c_str());
    ++shown;
  }
  return 0;
}
