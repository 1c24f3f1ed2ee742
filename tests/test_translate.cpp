// Translation-engine tests. The reference transpilers must produce
// *correct* target-model repositories: they build under the simulated
// toolchains, run on the device, and match the app's golden outputs. The
// defect mutators must then create exactly the failure class they claim.
// The per-cell memo behind agents::run_technique must agree with a fresh
// token model, and with itself when pool threads race on a cold cell.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "agents/techniques.hpp"
#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "eval/harness.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "support/par.hpp"
#include "translate/mutate.hpp"
#include "translate/transpile.hpp"

namespace ag = pareval::agents;
namespace pa = pareval::apps;
namespace bs = pareval::buildsim;
namespace pe = pareval::eval;
namespace px = pareval::xlate;
using pareval::llm::Technique;
using pareval::execsim::run_executable;
using pareval::minic::DiagCategory;

namespace {

struct PairCase {
  std::string app;
  pa::Model from;
  pa::Model to;
  bool expect_runnable;  // reference translation should pass validation
};

// The benchmark's sixteen translation tasks (§5.2). XSBench->Kokkos is the
// one task whose naive translation cannot work in our substrate (pointer
// arithmetic into Views); the paper's Figure 2 shows zero successes there
// for every technique, so the reference translation is only required to
// exist, not to pass.
std::vector<PairCase> pair_cases() {
  using M = pa::Model;
  return {
      {"nanoXOR", M::Cuda, M::OmpOffload, true},
      {"microXORh", M::Cuda, M::OmpOffload, true},
      {"microXOR", M::Cuda, M::OmpOffload, true},
      {"SimpleMOC-kernel", M::Cuda, M::OmpOffload, true},
      {"XSBench", M::Cuda, M::OmpOffload, true},
      {"llm.c", M::Cuda, M::OmpOffload, true},
      {"nanoXOR", M::Cuda, M::Kokkos, true},
      {"microXORh", M::Cuda, M::Kokkos, true},
      {"microXOR", M::Cuda, M::Kokkos, true},
      {"SimpleMOC-kernel", M::Cuda, M::Kokkos, true},
      {"XSBench", M::Cuda, M::Kokkos, false},
      {"llm.c", M::Cuda, M::Kokkos, true},
      {"nanoXOR", M::OmpThreads, M::OmpOffload, true},
      {"microXORh", M::OmpThreads, M::OmpOffload, true},
      {"microXOR", M::OmpThreads, M::OmpOffload, true},
      {"XSBench", M::OmpThreads, M::OmpOffload, true},
  };
}

std::string pair_name(const testing::TestParamInfo<PairCase>& info) {
  std::string name = info.param.app + "_" +
                     pa::model_name(info.param.from) + "_to_" +
                     pa::model_name(info.param.to);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

bool has_category(const pareval::minic::DiagBag& bag, DiagCategory cat) {
  for (const auto& d : bag.all()) {
    if (d.category == cat &&
        d.severity == pareval::minic::Severity::Error) {
      return true;
    }
  }
  return false;
}

}  // namespace

class TranslationPair : public testing::TestWithParam<PairCase> {};

TEST_P(TranslationPair, ReferenceTranslationIsCorrect) {
  const PairCase& pc = GetParam();
  const pa::AppSpec* app = pa::find_app(pc.app);
  ASSERT_NE(app, nullptr);

  px::TranspileLog log;
  const pareval::vfs::Repo translated =
      px::transpile_repo(*app, pc.from, pc.to, log);

  // Structural checks always apply.
  EXPECT_TRUE(translated.exists(pc.to == pa::Model::Kokkos
                                    ? "CMakeLists.txt"
                                    : "Makefile"));
  for (const auto& path : translated.paths()) {
    EXPECT_FALSE(path.ends_with(".cu")) << path;
    EXPECT_FALSE(path.ends_with(".cuh")) << path;
  }

  if (!pc.expect_runnable) return;

  const auto build = bs::build_repo(translated);
  ASSERT_TRUE(build.ok) << build.log;
  for (const auto& tc : app->tests) {
    const auto run = run_executable(*build.exe, tc.args);
    ASSERT_TRUE(run.ok) << run.stderr_text << "\n" << build.log;
    EXPECT_TRUE(
        pa::outputs_match(run.stdout_text, app->golden(tc), app->tolerance))
        << "got:  " << run.stdout_text << "want: " << app->golden(tc);
    EXPECT_GE(run.stats.device_kernel_launches, 1)
        << "translation did not execute on the device";
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs, TranslationPair,
                         testing::ValuesIn(pair_cases()), pair_name);

// ------------------------------------------------------- per-cell memo ---

namespace {

ag::TokenCounts tokens_of(const ag::TranslationResult& r) {
  return {r.input_tokens, r.output_tokens};
}

/// The token model computed from scratch: a fresh transpile, no memo.
ag::TokenCounts fresh_tokens(const pa::AppSpec& app, Technique technique,
                             const pareval::llm::LlmProfile& profile,
                             const pareval::llm::Pair& pair) {
  px::TranspileLog log;
  const pareval::vfs::Repo translated =
      px::transpile_repo(app, pair.from, pair.to, log);
  return ag::token_counts(app, app.repos.at(pair.from), translated, profile,
                          pair, technique);
}

}  // namespace

TEST(CellMemo, MemoizedTokensEqualAFreshTokenModelOnEveryPaperCell) {
  const pe::Suite& suite = pe::Suite::paper();
  std::size_t generated = 0;
  for (const auto& cell : pe::sweep_cells(suite, pe::SweepSpec::paper())) {
    const auto scores = suite.calibration(cell.profile->name, cell.technique,
                                          cell.pair, cell.app->name);
    if (!scores) continue;
    const std::string label = cell.profile->name + "|" +
                              pareval::llm::technique_name(cell.technique) +
                              "|" + pareval::llm::pair_name(cell.pair) +
                              "|" + cell.app->name;
    pareval::support::Rng rng_a(1), rng_b(2);
    const auto a = ag::run_technique(*cell.app, cell.technique,
                                     *cell.profile, cell.pair, rng_a, scores,
                                     "");
    const auto b = ag::run_technique(*cell.app, cell.technique,
                                     *cell.profile, cell.pair, rng_b, scores,
                                     "");
    ASSERT_TRUE(a.generated && b.generated) << label;
    // Samples differ only in their defects, never in their token counts.
    EXPECT_EQ(tokens_of(a), tokens_of(b)) << label;
    EXPECT_EQ(tokens_of(a), fresh_tokens(*cell.app, cell.technique,
                                         *cell.profile, cell.pair))
        << label;
    ++generated;
  }
  EXPECT_GT(generated, 100u);
}

TEST(CellMemo, ConcurrentCallsOnAColdCellAllAgree) {
  // An edited nanoXOR no other test touches, so the cell starts cold and
  // every pool thread races to fill it.
  pa::AppSpec app = *pa::find_app("nanoXOR");
  pareval::vfs::Repo& cuda = app.repos.at(pa::Model::Cuda);
  cuda.write("src/main.cu",
             "#define CELL_MEMO_RACE 1\n" + cuda.at("src/main.cu"));
  const pareval::llm::LlmProfile& profile =
      *pareval::llm::find_profile("o4-mini");
  const pareval::llm::Pair pair{pa::Model::Cuda, pa::Model::OmpOffload};
  const pareval::llm::CellScores scores{0.8, 0.6, 0.7, 0.5};

  pareval::support::ThreadPool& pool = pareval::support::ThreadPool::global();
  const unsigned threads = pool.worker_count();
  std::atomic<unsigned> arrived{0};
  std::vector<std::future<ag::TranslationResult>> futures;
  for (unsigned i = 0; i < threads; ++i) {
    futures.push_back(pool.submit([&] {
      // Hold every worker at the line so the calls overlap; the deadline
      // only guards against a worker that never picks its task up.
      ++arrived;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load() < threads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      pareval::support::Rng rng(7);
      return ag::run_technique(app, Technique::TopDown, profile, pair, rng,
                               scores, "");
    }));
  }
  std::vector<ag::TranslationResult> results;
  for (auto& f : futures) results.push_back(f.get());

  ASSERT_FALSE(results.empty());
  const ag::TranslationResult& first = results.front();
  ASSERT_TRUE(first.generated);
  EXPECT_EQ(tokens_of(first),
            fresh_tokens(app, Technique::TopDown, profile, pair));
  for (const auto& r : results) {
    EXPECT_EQ(r.repo, first.repo);
    EXPECT_EQ(tokens_of(r), tokens_of(first));
    EXPECT_EQ(r.defects, first.defects);
  }
}

// ----------------------------------------------------------- mutators ---

namespace {

pareval::vfs::Repo translated_nanoxor_omp() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("nanoXOR"), pa::Model::Cuda,
                            pa::Model::OmpOffload, log);
}

pareval::vfs::Repo translated_nanoxor_kokkos() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("nanoXOR"), pa::Model::Cuda,
                            pa::Model::Kokkos, log);
}

pareval::vfs::Repo translated_microxor_omp() {
  px::TranspileLog log;
  return px::transpile_repo(*pa::find_app("microXOR"), pa::Model::Cuda,
                            pa::Model::OmpOffload, log);
}

}  // namespace

TEST(Mutators, MakefileSyntaxBreaksBuildAsItsCategory) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(1);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::MakefileSyntax, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MakefileSyntax));
}

TEST(Mutators, MissingBuildTarget) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(2);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::MissingBuildTarget, rng)
          .applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MissingBuildTarget));
}

TEST(Mutators, CMakeConfigError) {
  auto repo = translated_nanoxor_kokkos();
  pareval::support::Rng rng(3);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::CMakeConfig, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::CMakeConfig));
}

TEST(Mutators, InvalidCompilerFlag) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(4);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::InvalidFlag, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::InvalidCompilerFlag));
}

TEST(Mutators, MissingHeader) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(5);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::MissingHeader, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::MissingHeader));
}

TEST(Mutators, CodeSyntax) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(6);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::CodeSyntax, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::CodeSyntax));
}

TEST(Mutators, UndeclaredIdentifierCrossFile) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(7);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::UndeclaredId, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::UndeclaredIdentifier) ||
              has_category(build.diags, DiagCategory::LinkError))
      << build.log;
}

TEST(Mutators, ArgMismatch) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(8);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::ArgMismatch, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::ArgTypeMismatch))
      << build.log;
}

TEST(Mutators, OmpInvalidDirective) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(9);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::OmpInvalid, rng).applied);
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok);
  EXPECT_TRUE(has_category(build.diags, DiagCategory::OmpInvalidDirective))
      << build.log;
}

TEST(Mutators, LinkError) {
  auto repo = translated_microxor_omp();
  pareval::support::Rng rng(10);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::LinkError, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  EXPECT_FALSE(build.ok) << outcome.description;
  EXPECT_TRUE(has_category(build.diags, DiagCategory::LinkError))
      << build.log;
}

TEST(Mutators, SemanticDefectBuildsButFailsValidation) {
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(11);
  const auto outcome =
      px::inject_defect(repo, px::DefectKind::Semantic, rng);
  ASSERT_TRUE(outcome.applied) << outcome.description;
  const auto build = bs::build_repo(repo);
  ASSERT_TRUE(build.ok) << outcome.description << "\n" << build.log;
  const pa::AppSpec* app = pa::find_app("nanoXOR");
  const auto run = run_executable(*build.exe, app->tests[0].args);
  const bool passes =
      run.ok &&
      pa::outputs_match(run.stdout_text, app->golden(app->tests[0]),
                        app->tolerance) &&
      run.stats.device_kernel_launches >= 1;
  EXPECT_FALSE(passes) << outcome.description;
}

TEST(Mutators, BuildFileDefectsAreHiddenByCodeOnlyMode) {
  // Code-only scoring swaps in the ground-truth build file: a build-file
  // defect must vanish, a source defect must not.
  const pa::AppSpec* app = pa::find_app("nanoXOR");
  auto repo = translated_nanoxor_omp();
  pareval::support::Rng rng(12);
  ASSERT_TRUE(
      px::inject_defect(repo, px::DefectKind::InvalidFlag, rng).applied);
  EXPECT_FALSE(bs::build_repo(repo).ok);
  // Swap in ground truth (what the harness's Code-only mode does).
  for (const auto& f :
       app->ground_truth_builds.at(pa::Model::OmpOffload).files()) {
    repo.write(f.path, f.content);
  }
  EXPECT_TRUE(bs::build_repo(repo).ok);
}

TEST(Mutators, EveryKindHasANameAndOrder) {
  EXPECT_EQ(px::all_defect_kinds().size(), 11u);
  for (const auto k : px::all_defect_kinds()) {
    EXPECT_NE(std::string(px::defect_name(k)), "?");
  }
}
