// Translation-engine tests. The reference transpilers must produce
// *correct* target-model repositories: they build under the simulated
// toolchains, run on the device, and match the app's golden outputs. The
// defect mutators must then create exactly the failure class they claim.
// The per-cell memo behind agents::run_technique must agree with a fresh
// token model, and with itself when pool threads race on a cold cell; the
// file-facts memo behind the lexing mutators must agree with a fresh lex;
// and a golden digest pins generation over every paper cell byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "agents/techniques.hpp"
#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "codeanal/lexer.hpp"
#include "eval/harness.hpp"
#include "eval/spec.hpp"
#include "eval/suite.hpp"
#include "support/par.hpp"
#include "translate/mutate.hpp"
#include "translate/transpile.hpp"

namespace ag = pareval::agents;
namespace ca = pareval::codeanal;
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

// -------------------------------------------------- generation golden ---

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return pareval::support::SplitMix64(h ^ v).next();
}

}  // namespace

TEST(Generation, GoldenDigestOverPaperCellsAndSamples) {
  // Samples 0-2 of every paper cell, each with its own fixed seed: every
  // generated repository (path and content hashes), defect description and
  // token count is folded in, so any change to generation shows here.
  const pe::Suite& suite = pe::Suite::paper();
  std::uint64_t h = 0;
  std::uint64_t seed = 0;
  std::size_t generated = 0;
  // Defects from the four mutators that read file_facts, so the digest
  // covers the memo's path: MissingHeader, UndeclaredId, ArgMismatch,
  // LinkError.
  const char* kLexed[] = {"retargeted to a missing file",
                          "renamed at its definition only",
                          "last argument dropped", "definition of '"};
  std::size_t lexed[std::size(kLexed)] = {};
  for (const auto& cell : pe::sweep_cells(suite, pe::SweepSpec::paper())) {
    const auto scores = suite.calibration(cell.profile->name, cell.technique,
                                          cell.pair, cell.app->name);
    for (int sample = 0; sample < 3; ++sample) {
      pareval::support::Rng rng(++seed);
      const auto r = ag::run_technique(*cell.app, cell.technique,
                                       *cell.profile, cell.pair, rng, scores,
                                       "absent");
      h = fold(h, r.generated);
      r.repo.for_each_hash([&](std::uint64_t path, std::uint64_t content) {
        h = fold(fold(h, path), content);
      });
      h = fold(h, r.defects.size());
      for (const auto& d : r.defects) {
        h = fold(h, pareval::support::stable_hash(d));
        for (std::size_t k = 0; k < std::size(kLexed); ++k) {
          lexed[k] += d.find(kLexed[k]) != std::string::npos ? 1 : 0;
        }
      }
      h = fold(h, static_cast<std::uint64_t>(r.input_tokens));
      h = fold(h, static_cast<std::uint64_t>(r.output_tokens));
      generated += r.generated ? 1 : 0;
    }
  }
  EXPECT_GT(generated, 300u);
  for (std::size_t k = 0; k < std::size(kLexed); ++k) {
    EXPECT_GT(lexed[k], 0u) << kLexed[k];
  }
  EXPECT_EQ(h, 0xfc4ebd3d392c9bc9ULL) << std::hex << h;
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

/// The last .cpp path of a repo, or "" when it has none.
std::string last_cpp_path(const pareval::vfs::Repo& repo) {
  std::string path;
  for (const auto& p : repo.paths()) {
    if (p.ends_with(".cpp")) path = p;
  }
  return path;
}

/// The facts a fresh lex of `text` gives, with no memo in the way.
px::FileFacts fresh_facts(const std::string& text) {
  px::FileFacts facts;
  facts.functions = ca::find_functions(ca::lex(text).tokens);
  for (const auto& inc : ca::scan_includes(text)) {
    if (!inc.angled) facts.quoted_includes.push_back(inc);
  }
  return facts;
}

void expect_fresh_facts(const px::FileFacts& got, const std::string& text,
                        const std::string& label) {
  const px::FileFacts want = fresh_facts(text);
  EXPECT_EQ(got.functions, want.functions) << label;
  EXPECT_EQ(got.quoted_includes, want.quoted_includes) << label;
}

}  // namespace

TEST(Mutators, FileFactsMemoMatchesAFreshLex) {
  const pe::Suite& suite = pe::Suite::paper();
  std::size_t functions = 0, includes = 0;
  auto check = [&](const pareval::vfs::Repo& repo, const std::string& what) {
    for (const auto& path : repo.paths()) {
      const auto facts = px::file_facts(repo, path);
      expect_fresh_facts(*facts, repo.at(path), what + ":" + path);
      // A second lookup is served from the memo: the same entry.
      EXPECT_EQ(px::file_facts(repo, path).get(), facts.get()) << path;
      functions += facts->functions.size();
      includes += facts->quoted_includes.size();
    }
  };
  for (const pa::AppSpec* app : suite.apps()) {
    for (const auto& [model, repo] : app->repos) {
      check(repo, app->name + "/" + pa::model_name(model));
    }
    for (const auto& pair : suite.pairs()) {
      if (app->repos.count(pair.from) == 0) continue;
      px::TranspileLog log;
      check(px::transpile_repo(*app, pair.from, pair.to, log),
            app->name + "/" + pareval::llm::pair_name(pair));
    }
  }
  EXPECT_GT(functions, 0u);
  EXPECT_GT(includes, 0u);

  // Rewriting a file between two lookups gives the new content's facts,
  // and restoring its bytes finds the old entry again.
  auto repo = translated_microxor_omp();
  const std::string path = last_cpp_path(repo);
  ASSERT_FALSE(path.empty());
  const std::string original = repo.at(path);
  const auto before = px::file_facts(repo, path);
  repo.write(path, "#include \"facts_rewrite.h\"\n" + original +
                       "\nint facts_rewrite(int x) { return x; }\n");
  const auto after = px::file_facts(repo, path);
  expect_fresh_facts(*after, repo.at(path), "rewritten " + path);
  ASSERT_EQ(after->functions.size(), before->functions.size() + 1);
  EXPECT_EQ(after->functions.back().name, "facts_rewrite");
  ASSERT_FALSE(after->quoted_includes.empty());
  EXPECT_EQ(after->quoted_includes.front().target, "facts_rewrite.h");
  repo.write(path, original);
  EXPECT_EQ(px::file_facts(repo, path).get(), before.get());
}

TEST(Mutators, FileFactsHeldPastEvictionStayIntact) {
  pareval::vfs::Repo repo = translated_microxor_omp();
  const std::string path = last_cpp_path(repo);
  ASSERT_FALSE(path.empty());
  const std::string original = repo.at(path);
  const auto held = px::file_facts(repo, path);

  // Four times the memo's 1024 entries of distinct contents overflow every
  // shard, the held entry's included, so the memo drops its owner.
  for (int i = 0; i < 4096; ++i) {
    repo.write(path, "int facts_evict_" + std::to_string(i) + "() {}\n");
    px::file_facts(repo, path);
  }
  repo.write(path, original);
  EXPECT_NE(px::file_facts(repo, path).get(), held.get())
      << "the flood did not evict the held entry";
  // The held owner outlived the eviction: its facts read as a fresh lex.
  expect_fresh_facts(*held, original, path);
}

TEST(Mutators, FileFactsConcurrentLookupsOnAColdFileAllAgree) {
  // A file no other test builds, so its entry starts cold and every pool
  // thread races to fill it.
  pareval::vfs::Repo repo = translated_microxor_omp();
  const std::string path = last_cpp_path(repo);
  ASSERT_FALSE(path.empty());
  repo.write(path, "#define FILE_FACTS_RACE 1\n" + repo.at(path));

  pareval::support::ThreadPool& pool = pareval::support::ThreadPool::global();
  const unsigned threads = pool.worker_count();
  std::atomic<unsigned> arrived{0};
  std::vector<std::future<std::shared_ptr<const px::FileFacts>>> futures;
  for (unsigned i = 0; i < threads; ++i) {
    futures.push_back(pool.submit([&] {
      ++arrived;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load() < threads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return px::file_facts(repo, path);
    }));
  }
  std::vector<std::shared_ptr<const px::FileFacts>> results;
  for (auto& f : futures) results.push_back(f.get());

  ASSERT_FALSE(results.empty());
  expect_fresh_facts(*results.front(), repo.at(path), path);
  for (const auto& r : results) {
    // One flight computed the entry; every racer reads that same value.
    EXPECT_EQ(r.get(), results.front().get());
  }
}

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
