// Tests for the §6.3 classification pipeline over the staged scoring
// provenance: per-sample labels from stage outcomes must match the legacy
// keyword table on the seed defect corpus (that equality is what keeps
// Figure 3's counts pinned across the staged-pipeline refactor), the
// provenance path must cover build/run/device failures exactly, and the
// word2vec + DBSCAN cluster merge must be deterministic across harness
// thread counts.

#include <gtest/gtest.h>

#include "eval/classify.hpp"
#include "eval/harness.hpp"
#include "eval/report.hpp"
#include "support/rng.hpp"

using namespace pareval;
using llm::Technique;
using xlate::DefectKind;

namespace {

/// A reduced but defect-diverse corpus: every cell of one pair at N
/// samples (the same shape examples/error_analysis.cpp sweeps).
std::vector<eval::TaskResult> seed_corpus(const llm::Pair& pair,
                                          int samples,
                                          unsigned threads = 1) {
  eval::HarnessConfig cfg;
  cfg.samples_per_task = samples;
  cfg.threads = threads;
  cfg.use_score_cache = false;
  return eval::run_pair_sweep(pair, cfg);
}

/// seed_corpus(all_pairs()[0], 8), swept once for the tests that share it.
const std::vector<eval::TaskResult>& pair_zero_corpus() {
  static const auto corpus = seed_corpus(llm::all_pairs()[0], 8);
  return corpus;
}

}  // namespace

TEST(ClassifyProvenance, MatchesKeywordTableOnSeedCorpus) {
  // The acceptance invariant: for every failed sample, the
  // provenance-first labeller and the keyword-only labeller agree on both
  // the label and whether a label exists at all. Equal per-sample labels
  // imply equal cluster votes, equal merged labels, and therefore equal
  // Figure 3 counts.
  int failures = 0;
  for (const llm::Pair& pair :
       {llm::all_pairs()[0], llm::all_pairs()[1]}) {
    for (const auto& task : seed_corpus(pair, 8)) {
      for (const auto& outcome : task.outcomes) {
        if (outcome.passed_overall) continue;
        ++failures;
        DefectKind provenance_kind = DefectKind::Semantic;
        DefectKind keyword_kind = DefectKind::Semantic;
        const bool provenance_hit =
            eval::label_outcome(outcome, &provenance_kind);
        const bool keyword_hit =
            eval::label_log(outcome.failure_log(), &keyword_kind);
        EXPECT_EQ(provenance_hit, keyword_hit)
            << "labelled-ness diverged for " << task.llm << "/" << task.app
            << "\nlog:\n"
            << outcome.failure_log();
        if (provenance_hit && keyword_hit) {
          EXPECT_EQ(provenance_kind, keyword_kind)
              << "label diverged for " << task.llm << "/" << task.app
              << ": provenance=" << xlate::defect_name(provenance_kind)
              << " keyword=" << xlate::defect_name(keyword_kind)
              << "\nlog:\n"
              << outcome.failure_log();
        }
      }
    }
  }
  // The corpus must actually exercise the comparison.
  EXPECT_GT(failures, 50);
}

TEST(ClassifyProvenance, ExactForBuildRunAndDeviceFailures) {
  const auto result = eval::classify_failures(pair_zero_corpus());
  ASSERT_FALSE(result.logs.empty());
  // Every labelled sample is either provenance-exact or keyword-resolved.
  int labelled = 0;
  for (const auto& log : result.logs) labelled += log.labelled;
  EXPECT_EQ(result.provenance_exact + result.keyword_fallback, labelled);
  // The staged pipeline makes most of the corpus exact: single-category
  // build failures and every validate-stage (mismatch/device) failure.
  EXPECT_GT(result.provenance_exact, result.keyword_fallback);
  for (const auto& log : result.logs) {
    if (log.stages.empty()) continue;
    const eval::StageOutcome* failed = nullptr;
    for (const auto& s : log.stages) {
      if (s.verdict == eval::StageVerdict::Fail) {
        failed = &s;
        break;
      }
    }
    ASSERT_NE(failed, nullptr);
    if (failed->stage == eval::Stage::Validate) {
      EXPECT_TRUE(log.labelled);
      EXPECT_TRUE(log.exact);
    }
  }
}

TEST(ClassifyProvenance, SyntheticStageCases) {
  auto failed_build = [](const char* detail) {
    eval::SampleOutcome o;
    o.built_overall = false;
    o.stages.push_back({eval::Stage::Build, eval::StageVerdict::Fail, -1,
                        detail, "some build log\n"});
    return o;
  };
  DefectKind kind;
  bool exact = false;

  // Single-category build diagnostics map straight to their Figure 3 row.
  ASSERT_TRUE(
      eval::label_outcome(failed_build("undeclared-identifier"), &kind,
                          &exact));
  EXPECT_EQ(kind, DefectKind::UndeclaredId);
  EXPECT_TRUE(exact);

  // Missing-header is spelling-ambiguous under the pinned keyword pass,
  // so it resolves via the fallback over the build slice: the
  // preprocessor spelling collapses into the makefile-syntax row (its
  // line ends "not found", which the /bin/sh rule claims first), while
  // the tool-level spelling reaches the real MissingHeader rule.
  auto missing_preproc = failed_build("missing-header");
  missing_preproc.stages[0].log =
      "src/main.cpp:2: error: 'xor_common.h.orig' file not found\n";
  ASSERT_TRUE(eval::label_outcome(missing_preproc, &kind, &exact));
  EXPECT_EQ(kind, DefectKind::MakefileSyntax);
  EXPECT_FALSE(exact);
  auto missing_tool = failed_build("missing-header");
  missing_tool.stages[0].log =
      "g++: error: foo.c: No such file or directory\n";
  ASSERT_TRUE(eval::label_outcome(missing_tool, &kind, &exact));
  EXPECT_EQ(kind, DefectKind::MissingHeader);
  EXPECT_FALSE(exact);

  // Mixed build diagnostics fall back to the keyword scan over the build
  // slice.
  eval::SampleOutcome mixed;
  mixed.stages.push_back(
      {eval::Stage::Build, eval::StageVerdict::Fail, -1,
       eval::kDetailMixedDiagnostics,
       "src/main.cpp:5: error: use of undeclared identifier 'x'\n"});
  ASSERT_TRUE(eval::label_outcome(mixed, &kind, &exact));
  EXPECT_EQ(kind, DefectKind::UndeclaredId);
  EXPECT_FALSE(exact);

  // Validate-stage failures are Semantic by construction, logs or not.
  eval::SampleOutcome device;
  device.built_overall = true;
  device.stages.push_back(
      {eval::Stage::Build, eval::StageVerdict::Pass, -1, "", ""});
  device.stages.push_back(
      {eval::Stage::Execute, eval::StageVerdict::Pass, 0, "", ""});
  device.stages.push_back({eval::Stage::Validate, eval::StageVerdict::Fail,
                           0, eval::kDetailNoDeviceLaunch, ""});
  ASSERT_TRUE(eval::label_outcome(device, &kind, &exact));
  EXPECT_EQ(kind, DefectKind::Semantic);
  EXPECT_TRUE(exact);

  // No provenance, no log: nothing to label.
  eval::SampleOutcome empty;
  EXPECT_FALSE(eval::label_outcome(empty, &kind, &exact));
}

TEST(ClassifyDeterminism, ClusterMergeStableAcrossThreadCounts) {
  // The full pipeline — harness sweep, embeddings, DBSCAN, cluster-merge
  // vote — must be bit-identical whether the corpus was produced serially
  // or on the pool (and whether scores came through a cache).
  const llm::Pair pair = llm::all_pairs()[0];
  const auto serial_tasks = seed_corpus(pair, 6, /*threads=*/1);
  eval::HarnessConfig pooled_cfg;
  pooled_cfg.samples_per_task = 6;
  pooled_cfg.threads = 0;  // the global pool
  eval::ScoreCache cache;
  pooled_cfg.score_cache = &cache;
  const auto pooled_tasks = eval::run_pair_sweep(pair, pooled_cfg);
  ASSERT_EQ(serial_tasks, pooled_tasks);

  const auto a = eval::classify_failures(serial_tasks);
  const auto b = eval::classify_failures(pooled_tasks);
  EXPECT_EQ(a.raw_clusters, b.raw_clusters);
  EXPECT_EQ(a.provenance_exact, b.provenance_exact);
  EXPECT_EQ(a.keyword_fallback, b.keyword_fallback);
  EXPECT_EQ(a.counts, b.counts);
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i].cluster, b.logs[i].cluster);
    EXPECT_EQ(a.logs[i].label, b.logs[i].label);
    EXPECT_EQ(a.logs[i].labelled, b.logs[i].labelled);
    EXPECT_EQ(a.logs[i].exact, b.logs[i].exact);
  }
}

TEST(ClassifyGolden, PairZeroCorpusPinned) {
  // Golden pin of the whole §6.3 pipeline on one seed corpus, recorded
  // before the word2vec and DBSCAN kernels were rewritten. Any change to
  // the embedding arithmetic (summation order, FMA, fast-math) or to the
  // clustering moves at least one of these values, so a speed-up that is
  // not exact cannot land silently.
  const auto result = eval::classify_failures(pair_zero_corpus());
  std::string per_log;
  for (const auto& log : result.logs) {
    per_log += std::to_string(log.cluster) + ":" +
               std::to_string(static_cast<int>(log.label)) + ":" +
               (log.labelled ? "1" : "0") + ";";
  }
  std::string counts;
  std::map<std::string, int> per_kind;
  for (const auto& [kind, apps] : result.counts) {
    for (const auto& [app, llms] : apps) {
      for (const auto& [llm_name, n] : llms) {
        counts += std::string(xlate::defect_name(kind)) + "/" + app + "/" +
                  llm_name + "=" + std::to_string(n) + ";";
        per_kind[xlate::defect_name(kind)] += n;
      }
    }
  }
  EXPECT_EQ(result.logs.size(), 411u);
  EXPECT_EQ(result.raw_clusters, 28);
  EXPECT_EQ(result.provenance_exact, 373);
  EXPECT_EQ(result.keyword_fallback, 38);
  EXPECT_EQ(support::stable_hash(per_log), 14501463361431495385ull);
  EXPECT_EQ(support::stable_hash(counts), 5568499743865482694ull);
  const std::map<std::string, int> expected_per_kind = {
      {"CMake or Makefile Syntax Error", 86},
      {"Function Argument or Type Mismatch", 15},
      {"Invalid Compiler Flag", 102},
      {"Linker Error", 38},
      {"Makefile Missing Build Target", 117},
      {"OpenMP Invalid Directive", 6},
      {"Undeclared Identifier", 33},
  };
  EXPECT_EQ(per_kind, expected_per_kind);
}

TEST(ClassifyReport, StageBreakdownRendersProvenanceCounts) {
  const auto tasks = seed_corpus(llm::all_pairs()[0], 4);
  const std::string report = eval::stage_breakdown_report(
      eval::Suite::paper(), eval::SweepSpec::paper(), tasks);
  EXPECT_NE(report.find("Build fail"), std::string::npos);
  EXPECT_NE(report.find("No device"), std::string::npos);
  EXPECT_NE(report.find("nanoXOR"), std::string::npos);
}
