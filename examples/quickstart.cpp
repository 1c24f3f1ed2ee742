// Quickstart: translate nanoXOR from CUDA to OpenMP offload with one
// simulated LLM, score it the way the benchmark does, and print the
// paper's Listing 2/3 pair (original CUDA kernel + its translation).
#include <cstdio>

#include "pareval/pareval.hpp"

using namespace pareval;

int main() {
  const apps::AppSpec* app = apps::find_app("nanoXOR");
  const llm::Pair pair = llm::all_pairs()[0];  // CUDA -> OpenMP Offload

  // 1. The original CUDA kernel (paper Listing 2).
  std::printf("--- original src/main.cu (CUDA) ---\n%s\n",
              app->repos.at(apps::Model::Cuda).at("src/main.cu").c_str());

  // 2. A reference translation (what a perfect model would produce).
  xlate::TranspileLog log;
  const vfs::Repo translated =
      xlate::transpile_repo(*app, pair.from, pair.to, log);
  std::printf("--- translated src/main.cpp (OpenMP offload) ---\n%s\n",
              translated.at("src/main.cpp").c_str());

  // 3. One simulated-LLM attempt (o4-mini), scored like the benchmark.
  const llm::LlmProfile* profile = llm::find_profile("o4-mini");
  support::Rng rng(42);
  const auto attempt = agents::run_technique(
      *app, llm::Technique::NonAgentic, *profile, pair, rng);
  std::printf("generated with %s: %lld input + %lld output tokens, %zu "
              "injected defect(s)\n",
              profile->name.c_str(), attempt.input_tokens,
              attempt.output_tokens, attempt.defects.size());
  const auto score =
      eval::ScoringPipeline().score(*app, attempt.repo, pair.to);
  std::printf("build: %s, validation: %s\n", score.built ? "ok" : "FAILED",
              score.passed ? "ok" : "FAILED");
  if (!score.passed) std::printf("log:\n%s\n", score.flat_log().c_str());
  return 0;
}
