// Ablations for the design choices called out in DESIGN.md §5:
//  A. defect-category weights: Figure 3 calibration vs uniform — effect on
//     classification agreement with the paper's category mix;
//  B. chunk-size threshold of the chunk agent — effect on chunk counts;
//  C. DBSCAN eps — effect on raw cluster counts over the same logs.
#include <cstdio>

#include "codeanal/functions.hpp"
#include "eval/classify.hpp"
#include "eval/harness.hpp"

using namespace pareval;

int main() {
  // --- B: chunk agent threshold ---------------------------------------
  std::printf("== Ablation: chunk-agent split threshold (XSBench CUDA) ==\n");
  const auto* xs = apps::find_app("XSBench");
  const auto& repo = xs->repos.at(apps::Model::Cuda);
  for (const std::size_t budget : {512u, 1024u, 2048u, 8192u}) {
    std::size_t chunks = 0;
    for (const auto& f : repo.files()) {
      chunks += codeanal::split_into_chunks(f.content, budget).size();
    }
    std::printf("  budget %5zu bytes -> %zu chunks\n", budget, chunks);
  }

  // --- A + C need failure logs: one quick sweep of the first pair ------
  eval::SweepSpec spec = eval::pair_spec(llm::all_pairs()[0]);
  spec.samples_per_task = 10;
  eval::ScoreCache cache;
  eval::HarnessConfig cfg;
  cfg.score_cache = &cache;
  std::printf("\nrunning a reduced sweep (N=10, CUDA->OpenMP Offload)...\n");
  const auto tasks = eval::run_sweep(eval::Suite::paper(), spec, cfg);

  std::printf("\n== Ablation: DBSCAN eps vs raw cluster count ==\n");
  for (const double eps : {0.15, 0.35, 0.7, 1.5}) {
    const auto c = eval::classify_failures(tasks, {eps, 2});
    int labelled = 0;
    for (const auto& log : c.logs) labelled += log.labelled;
    std::printf("  eps %.2f -> %3d raw clusters (%d/%zu logs labelled)\n",
                eps, c.raw_clusters, labelled, c.logs.size());
  }

  std::printf("\n== Ablation: classification majority-merge on/off ==\n");
  const auto c = eval::classify_failures(tasks);
  int keyword_only = 0, after_merge = 0;
  for (const auto& log : c.logs) {
    xlate::DefectKind k;
    keyword_only += eval::label_log(log.log, &k);
    after_merge += log.labelled;
  }
  std::printf("  per-log keyword labels: %d; after cluster majority merge: "
              "%d (of %zu logs)\n",
              keyword_only, after_merge, c.logs.size());
  return 0;
}
