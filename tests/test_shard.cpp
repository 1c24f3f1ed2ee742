// Tests for the distributed sweep subsystem: the shard planner's
// exactly-once coverage, bit-identical shard/merge recombination, the JSON
// codecs for the harness result types, and the persistent (versioned,
// size-bounded) ScoreCache.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/shard.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace pe = pareval::eval;
namespace ps = pareval::support;
using pareval::llm::Pair;

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace

TEST(ShardPlan, CoversEveryUnitExactlyOnceForArbitraryK) {
  const std::size_t cells = 7;
  const int samples = 5;
  for (const int k : {1, 2, 3, 4, 7, 33, 64}) {
    std::set<std::pair<int, int>> seen;
    for (int shard = 0; shard < k; ++shard) {
      const pe::ShardPlan plan = pe::plan_shard(cells, samples, shard, k);
      EXPECT_EQ(plan.shard_index, shard);
      for (const auto& unit : plan.units) {
        EXPECT_TRUE(seen.insert(unit).second)
            << "unit covered twice with K=" << k;
        EXPECT_GE(unit.first, 0);
        EXPECT_LT(unit.first, static_cast<int>(cells));
        EXPECT_GE(unit.second, 0);
        EXPECT_LT(unit.second, samples);
      }
    }
    EXPECT_EQ(seen.size(), cells * samples) << "K=" << k;
  }
}

TEST(ShardPlan, InterleavesUnitsAcrossShards) {
  // Consecutive global units land on different shards (load balance).
  const pe::ShardPlan plan = pe::plan_shard(3, 4, 1, 4);
  ASSERT_EQ(plan.units.size(), 3u);
  EXPECT_EQ(plan.units[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(plan.units[1], (std::pair<int, int>{1, 1}));
  EXPECT_EQ(plan.units[2], (std::pair<int, int>{2, 1}));
}

TEST(ShardPlan, RejectsInvalidArguments) {
  EXPECT_THROW(pe::plan_shard(3, 4, -1, 4), std::invalid_argument);
  EXPECT_THROW(pe::plan_shard(3, 4, 4, 4), std::invalid_argument);
  EXPECT_THROW(pe::plan_shard(3, 4, 0, 0), std::invalid_argument);
  EXPECT_THROW(pe::plan_shard(3, 0, 0, 1), std::invalid_argument);
}

TEST(ShardMerge, FourShardsBitIdenticalToSingleProcessSweep) {
  const Pair& pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig config;
  config.samples_per_task = 2;

  constexpr int kShards = 4;
  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(pe::run_shard(pair, i, kShards, config));
  }
  const auto merged = pe::merge_shards(pair, shards);
  const auto reference = pe::run_pair_sweep(pair, config);
  EXPECT_EQ(merged, reference);
}

TEST(ShardMerge, SingleShardEqualsSweepAndSurvivesJsonRoundTrip) {
  const Pair& pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig config;
  config.samples_per_task = 2;

  const pe::ShardResult shard = pe::run_shard(pair, 0, 1, config);
  // Through the on-disk format, as the CI fan-in consumes it.
  std::vector<pe::ShardResult> parsed;
  std::string error;
  ASSERT_TRUE(pe::parse_shard_file(pe::shard_file_text({shard}), &parsed,
                                   &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], shard);

  const auto merged = pe::merge_shards(pair, parsed);
  EXPECT_EQ(merged, pe::run_pair_sweep(pair, config));
}

TEST(ShardMerge, RejectsMissingAndDuplicateUnits) {
  const Pair& pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig config;
  config.samples_per_task = 2;

  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(pe::run_shard(pair, i, 2, config));
  }
  // Missing: drop one shard entirely.
  EXPECT_THROW(pe::merge_shards(pair, {shards[0]}), std::runtime_error);
  // Duplicate: the same shard twice.
  EXPECT_THROW(pe::merge_shards(pair, {shards[0], shards[1], shards[1]}),
               std::runtime_error);
  // Configuration mismatch: different seed (a different spec hash).
  auto reseeded = shards;
  reseeded[1].spec.seed ^= 1;
  EXPECT_THROW(pe::merge_shards(pair, reseeded), std::runtime_error);
}

TEST(ShardMerge, RejectsMixedEngineShards) {
  // Engines are bit-identical by contract, so a mixed set is not a score
  // problem — it means the worker fleet was misconfigured, and the merge
  // must refuse rather than paper over it.
  const Pair& pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig interp_config;
  interp_config.samples_per_task = 2;
  pe::HarnessConfig vm_config = interp_config;
  vm_config.engine = pareval::minic::EngineKind::Vm;

  const auto interp_shard = pe::run_shard(pair, 0, 2, interp_config);
  const auto vm_shard = pe::run_shard(pair, 1, 2, vm_config);
  EXPECT_EQ(interp_shard.engine, pareval::minic::EngineKind::Interp);
  EXPECT_EQ(vm_shard.engine, pareval::minic::EngineKind::Vm);
  EXPECT_THROW(pe::merge_shards(pair, {interp_shard, vm_shard}),
               std::runtime_error);

  // A uniform VM fleet merges fine — and bit-identically to interp.
  const auto vm_other = pe::run_shard(pair, 0, 2, vm_config);
  const auto vm_merged = pe::merge_shards(pair, {vm_other, vm_shard});
  const auto interp_other = pe::run_shard(pair, 1, 2, interp_config);
  const auto interp_merged =
      pe::merge_shards(pair, {interp_shard, interp_other});
  EXPECT_EQ(vm_merged, interp_merged);
}

TEST(ShardJson, StagedScoreRoundTrip) {
  pe::StagedScore s;
  s.built = true;
  s.passed = false;
  s.stages.push_back(
      {pe::Stage::Build, pe::StageVerdict::Pass, -1, "",
       "line1\n\"quoted\"\ttab\x01 control\nutf8: \xc3\xa9\n"});
  s.stages.push_back({pe::Stage::Execute, pe::StageVerdict::Fail, 1,
                      pe::kDetailRunError, "runtime error\n"});
  pe::StagedScore back;
  ASSERT_TRUE(pe::from_json(pe::to_json(s), &back));
  EXPECT_EQ(back, s);
}

TEST(ShardJson, SampleOutcomeRoundTrip) {
  pe::SampleOutcome o;
  o.built_overall = true;
  o.passed_overall = false;
  o.built_codeonly = true;
  o.passed_codeonly = true;
  o.tokens = 123456789;
  o.stages.push_back({pe::Stage::Build, pe::StageVerdict::Pass, -1, "",
                      "g++ -O2 -c main.cpp\nbuild succeeded\n"});
  o.stages.push_back({pe::Stage::Execute, pe::StageVerdict::Fail, 0,
                      pe::kDetailRunError,
                      "error: undeclared identifier 'blockIdx'\n"});
  o.defects = {"cuda_builtin", "makefile_flag"};
  pe::SampleOutcome back;
  ASSERT_TRUE(pe::from_json(pe::to_json(o), &back));
  EXPECT_EQ(back, o);
  EXPECT_EQ(back.failure_log(),
            "g++ -O2 -c main.cpp\nbuild succeeded\n"
            "error: undeclared identifier 'blockIdx'\n");
}

TEST(ShardJson, StageOutcomeRoundTripAndCompactFields) {
  // A stripped-log outcome omits the value-dependent fields but round
  // trips to an equal struct.
  pe::StageOutcome s;
  s.stage = pe::Stage::Validate;
  s.verdict = pe::StageVerdict::Fail;
  s.test_case = 2;
  s.detail = pe::kDetailNoDeviceLaunch;
  const auto j = pe::to_json(s);
  EXPECT_EQ(j.dump().find("\"log\""), std::string::npos);
  pe::StageOutcome back;
  ASSERT_TRUE(pe::from_json(j, &back));
  EXPECT_EQ(back, s);

  // Unknown stage/verdict keys are rejected, not defaulted.
  auto bad = pe::to_json(s);
  bad.set("stage", "link");
  EXPECT_FALSE(pe::from_json(bad, &back));
}

TEST(ShardJson, TaskResultRoundTripThroughText) {
  // A real task (with real failure logs) through dump + parse.
  const auto* app = pareval::apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  pe::HarnessConfig config;
  config.samples_per_task = 4;
  const auto task = pe::run_task(*app, pareval::llm::Technique::NonAgentic,
                                 pareval::llm::all_profiles()[0],
                                 pareval::llm::all_pairs()[0], config);
  const std::string text = pe::to_json(task).dump();
  const auto parsed = ps::Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  pe::TaskResult back;
  ASSERT_TRUE(pe::from_json(*parsed, &back));
  EXPECT_EQ(back, task);
}

TEST(ShardJson, AbortedTaskResultRoundTrip) {
  pe::TaskResult t;
  t.llm = "o4-mini";
  t.technique = pareval::llm::Technique::TopDown;
  t.pair = pareval::llm::all_pairs()[1];
  t.app = "llm.c";
  t.ran = false;
  t.abort_reason = "context window exceeded";
  pe::TaskResult back;
  ASSERT_TRUE(pe::from_json(pe::to_json(t), &back));
  EXPECT_EQ(back, t);
}

TEST(ShardJson, RejectsMalformedInput) {
  pe::TaskResult t;
  EXPECT_FALSE(pe::from_json(ps::Json("not an object"), &t));
  auto j = pe::to_json(pe::TaskResult{});
  j.set("technique", "No such technique");
  EXPECT_FALSE(pe::from_json(j, &t));

  std::vector<pe::ShardResult> shards;
  std::string error;
  EXPECT_FALSE(pe::parse_shard_file("{]", &shards, &error));
  EXPECT_FALSE(pe::parse_shard_file("{\"format\":\"other\"}", &shards,
                                    &error));
}

TEST(ScoreCachePersist, VersionMismatchDiscardsStaleStore) {
  const auto* app = pareval::apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  const auto& repo = app->repos.at(pareval::apps::Model::Cuda);

  const std::string dir = temp_path("score_cache_stale_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());
  pe::ScoreCache cache;
  cache.attach(store);
  cache.score(*app, repo, pareval::apps::Model::Cuda);
  ASSERT_EQ(cache.flush(), 1u);

  // Forge an index written by a "different" scoring pipeline.
  const std::string index = dir + "/" + pe::ScoreCache::kStream + ".idx";
  std::string text = read_file(index);
  const std::string want = ps::u64_to_hex(pe::scoring_pipeline_hash());
  ASSERT_NE(text.find(want), std::string::npos);
  write_file(index, ps::replace_all(text, want, "00000000deadbeef"));

  pareval::cache::Store reader(dir);
  pe::ScoreCache stale;
  EXPECT_FALSE(stale.attach(reader));
  EXPECT_EQ(stale.size(), 0u);

  // And an index that is not JSON at all.
  write_file(index, "not json");
  pe::ScoreCache garbled;
  EXPECT_FALSE(garbled.attach(reader));
  EXPECT_EQ(garbled.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScoreCachePersist, JournalStoreRoundTripServesHits) {
  const auto* app = pareval::apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  const auto& repo = app->repos.at(pareval::apps::Model::Cuda);

  const std::string dir = temp_path("score_cache_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());

  pe::ScoreCache cache;
  EXPECT_FALSE(cache.attach(store));  // nothing journaled yet
  const auto first = cache.score(*app, repo, pareval::apps::Model::Cuda);
  EXPECT_EQ(cache.flush(), 1u);
  EXPECT_EQ(cache.flush(), 0u);  // idempotent: already published

  // A fresh process (separate Store instance) replays the journal and
  // serves the score without re-scoring — also across a compaction.
  pareval::cache::Store reader(dir);
  pe::ScoreCache reloaded;
  EXPECT_TRUE(reloaded.attach(reader));
  EXPECT_EQ(reloaded.size(), 1u);
  const auto again = reloaded.score(*app, repo, pareval::apps::Model::Cuda);
  EXPECT_EQ(reloaded.hits(), 1u);
  EXPECT_EQ(reloaded.misses(), 0u);
  EXPECT_EQ(again, first);

  ASSERT_TRUE(reader.compact(pe::ScoreCache::kStream,
                             pe::scoring_pipeline_hash()));
  pe::ScoreCache compacted;
  EXPECT_TRUE(compacted.attach(reader));
  EXPECT_EQ(compacted.size(), 1u);

  // A different pipeline version cold-starts, like a stale file.
  pe::ScoreCache stale;
  EXPECT_FALSE(stale.attach(reader, /*version=*/0xdeadbeef));
  EXPECT_EQ(stale.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ScoreCachePersist, ImportStoreForwardsRecordsOnFlush) {
  // The fan-in primitive: two workers flushed into separate journal
  // dirs; the merge attaches a shared target, imports both, and flushes
  // — the target then warm-starts a fresh cache with both scores.
  const auto* nano = pareval::apps::find_app("nanoXOR");
  const auto* micro = pareval::apps::find_app("microXOR");
  ASSERT_NE(nano, nullptr);
  ASSERT_NE(micro, nullptr);

  const std::string dir_a = temp_path("score_store_worker_a");
  const std::string dir_b = temp_path("score_store_worker_b");
  const std::string dir_t = temp_path("score_store_target");
  for (const auto& d : {dir_a, dir_b, dir_t}) {
    std::filesystem::remove_all(d);
  }

  {
    pareval::cache::Store store_a(dir_a);
    ASSERT_TRUE(store_a.open());
    pe::ScoreCache worker_a;
    worker_a.attach(store_a);
    worker_a.score(*nano, nano->repos.at(pareval::apps::Model::Cuda),
                   pareval::apps::Model::Cuda);
    EXPECT_EQ(worker_a.flush(), 1u);

    pareval::cache::Store store_b(dir_b);
    ASSERT_TRUE(store_b.open());
    pe::ScoreCache worker_b;
    worker_b.attach(store_b);
    worker_b.score(*micro, micro->repos.at(pareval::apps::Model::Cuda),
                   pareval::apps::Model::Cuda);
    EXPECT_EQ(worker_b.flush(), 1u);
  }

  {
    pareval::cache::Store target(dir_t);
    ASSERT_TRUE(target.open());
    pe::ScoreCache fold;
    fold.attach(target);
    pareval::cache::Store source_a(dir_a);
    pareval::cache::Store source_b(dir_b);
    EXPECT_TRUE(fold.import_store(source_a));
    EXPECT_TRUE(fold.import_store(source_b));
    EXPECT_EQ(fold.flush(), 2u);  // imported records forward to target
    EXPECT_EQ(fold.flush(), 0u);
  }

  pareval::cache::Store target(dir_t);
  pe::ScoreCache warm;
  EXPECT_TRUE(warm.attach(target));
  EXPECT_EQ(warm.size(), 2u);
  warm.score(*nano, nano->repos.at(pareval::apps::Model::Cuda),
             pareval::apps::Model::Cuda);
  warm.score(*micro, micro->repos.at(pareval::apps::Model::Cuda),
             pareval::apps::Model::Cuda);
  EXPECT_EQ(warm.hits(), 2u);
  EXPECT_EQ(warm.misses(), 0u);
  for (const auto& d : {dir_a, dir_b, dir_t}) {
    std::filesystem::remove_all(d);
  }
}

TEST(ScoreCachePersist, CapacityBoundsEntryCount) {
  // Journal many synthetic score records, then replay them into a
  // capacity-bounded cache: eviction must keep size <= capacity.
  std::vector<ps::Json> records;
  for (int i = 0; i < 200; ++i) {
    pe::StagedScore s;
    s.built = true;
    s.passed = i % 2 == 0;
    s.stages.push_back({pe::Stage::Build, pe::StageVerdict::Pass, -1, "",
                        "synthetic"});
    ps::Json e = pe::to_json(s);
    e.set("key", ps::u64_to_hex(0x1000ull + static_cast<unsigned>(i)));
    records.push_back(std::move(e));
  }
  const std::string dir = temp_path("score_cache_bounded_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append_batch(pe::ScoreCache::kStream,
                                 pe::scoring_pipeline_hash(), records));

  pe::ScoreCache cache;
  cache.set_capacity(32);
  ASSERT_TRUE(cache.attach(store));
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.size(), 0u);

  // Shrinking an already-populated cache evicts immediately.
  cache.set_capacity(16);
  EXPECT_LE(cache.size(), 16u);
  std::filesystem::remove_all(dir);
}

TEST(ScoreCachePersist, SuiteAwareVersionInvalidatesAcrossSuites) {
  const auto* app = pareval::apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);

  // Persist under a custom suite's pipeline hash: a store written for one
  // suite must not warm-start a sweep of a different one.
  pe::Suite custom = pe::Suite::paper();
  pareval::apps::AppSpec tiny;
  tiny.name = "tinyApp";
  custom.add_app(std::move(tiny));
  const std::uint64_t custom_version = pe::scoring_pipeline_hash(custom);
  ASSERT_NE(custom_version, pe::scoring_pipeline_hash());

  const std::string dir = temp_path("score_cache_custom_suite_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());
  pe::ScoreCache cache;
  cache.attach(store, custom_version);
  cache.score(*app, app->repos.at(pareval::apps::Model::Cuda),
              pareval::apps::Model::Cuda);
  ASSERT_EQ(cache.flush(), 1u);

  pareval::cache::Store reader(dir);
  pe::ScoreCache paper_reader;
  EXPECT_FALSE(paper_reader.attach(reader));  // default = paper hash: stale
  EXPECT_EQ(paper_reader.size(), 0u);
  pe::ScoreCache custom_reader;
  EXPECT_TRUE(custom_reader.attach(reader, custom_version));
  EXPECT_EQ(custom_reader.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ShardFile, RejectsWrongFormatVersion) {
  pe::HarnessConfig config;
  config.samples_per_task = 1;
  const auto shard = pe::run_shard(pareval::llm::all_pairs()[0], 0, 1,
                                   config);
  std::string text = pe::shard_file_text({shard});
  ASSERT_NE(text.find("\"format_version\":3"), std::string::npos);
  text = ps::replace_all(text, "\"format_version\":3",
                         "\"format_version\":2");
  std::vector<pe::ShardResult> parsed;
  std::string error;
  EXPECT_FALSE(pe::parse_shard_file(text, &parsed, &error));
  EXPECT_NE(error.find("format version"), std::string::npos);
}

TEST(ShardFile, KeepLogsOffStripsStageLogsButKeepsProvenance) {
  // keep_logs=false must round-trip through a shard file and shrink it:
  // the structured stage verdicts/details survive, the log slices do not.
  const Pair pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig with_logs;
  with_logs.samples_per_task = 6;
  pe::HarnessConfig without_logs = with_logs;
  without_logs.keep_logs = false;

  const auto full = pe::run_shard(pair, 0, 1, with_logs);
  const auto lean = pe::run_shard(pair, 0, 1, without_logs);

  // Same verdicts, same provenance shape, no log bytes.
  ASSERT_EQ(full.records.size(), lean.records.size());
  bool saw_failure = false;
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    const auto& f = full.records[i].run.outcome;
    const auto& l = lean.records[i].run.outcome;
    EXPECT_EQ(f.built_overall, l.built_overall);
    EXPECT_EQ(f.passed_overall, l.passed_overall);
    ASSERT_EQ(f.stages.size(), l.stages.size());
    for (std::size_t s = 0; s < f.stages.size(); ++s) {
      EXPECT_EQ(f.stages[s].stage, l.stages[s].stage);
      EXPECT_EQ(f.stages[s].verdict, l.stages[s].verdict);
      EXPECT_EQ(f.stages[s].detail, l.stages[s].detail);
      EXPECT_TRUE(l.stages[s].log.empty());
    }
    if (!f.stages.empty()) saw_failure = true;
    EXPECT_EQ(l.failure_log(), "");
  }
  ASSERT_TRUE(saw_failure) << "corpus produced no failures to strip";

  // Round trip preserves the lean shard exactly, and the file is smaller.
  const std::string full_text = pe::shard_file_text({full});
  const std::string lean_text = pe::shard_file_text({lean});
  EXPECT_LT(lean_text.size(), full_text.size());
  std::vector<pe::ShardResult> back;
  std::string error;
  ASSERT_TRUE(pe::parse_shard_file(lean_text, &back, &error)) << error;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], lean);
}

TEST(ShardFile, MaxLogBytesBoundsKeptSlices) {
  const Pair pair = pareval::llm::all_pairs()[0];
  pe::HarnessConfig bounded;
  bounded.samples_per_task = 6;
  bounded.max_log_bytes = 64;
  const auto shard = pe::run_shard(pair, 0, 1, bounded);
  bool saw_log = false;
  for (const auto& rec : shard.records) {
    for (const auto& s : rec.run.outcome.stages) {
      EXPECT_LE(s.log.size(), 64u);
      if (!s.log.empty()) saw_log = true;
    }
  }
  EXPECT_TRUE(saw_log);
  // Bounded outcomes round-trip bit-identically too.
  std::vector<pe::ShardResult> back;
  std::string error;
  ASSERT_TRUE(pe::parse_shard_file(pe::shard_file_text({shard}), &back,
                                   &error))
      << error;
  EXPECT_EQ(back[0], shard);
}
