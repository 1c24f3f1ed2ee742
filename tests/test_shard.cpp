// Tests for the distributed sweep subsystem: the shard planner's
// exactly-once coverage, bit-identical shard/merge recombination, the JSON
// codecs for the harness result types, and the persistent (versioned,
// size-bounded) ScoreCache.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/shard.hpp"
#include "one_cell.hpp"
#include "support/cachestore.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace pe = pareval::eval;
namespace ps = pareval::support;

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

/// One counter of every journal block in `cache.stats()`, keyed
/// "layer.block": score.journal, tu.journal, tu.plan_journal,
/// tu.obj_journal and link.journal (only the layers bound to a store).
std::map<std::string, long long> journal_counts(const pe::ScoreCache& cache,
                                                const char* counter) {
  std::map<std::string, long long> out;
  const ps::Json stats = cache.stats();
  for (const auto& [layer, block] : stats.members()) {
    for (const auto& [key, journal] : block.members()) {
      if (key.ends_with("journal")) {
        out[layer + "." + key] = journal[counter].as_int();
      }
    }
  }
  return out;
}

std::size_t total(const std::map<std::string, long long>& counts) {
  long long n = 0;
  for (const auto& [stream, count] : counts) n += count;
  return static_cast<std::size_t>(n);
}

/// A few cells of nanoXOR/microXOR, enough for successful links.
pe::SweepSpec stack_spec() {
  pe::SweepSpec spec;
  spec.llms = {"o4-mini"};
  spec.pairs = {"cuda->omp_offload"};
  spec.apps = {"nanoXOR", "microXOR"};
  spec.techniques = {"non_agentic"};
  spec.samples_per_task = 4;
  spec.seed = 0x57ac;
  return spec;
}

/// The paper's sweep of pair 0 at N=2: the fixture of the merge tests.
pe::SweepSpec pair_zero_spec() {
  pe::SweepSpec spec = pe::pair_spec(pareval::llm::all_pairs()[0]);
  spec.samples_per_task = 2;
  return spec;
}

/// Cold-sweep stack_spec() through `cache`, which the caller attached to
/// a fresh store, and flush it.
std::size_t cold_sweep_and_flush(pe::ScoreCache& cache) {
  pe::HarnessConfig config;
  config.score_cache = &cache;
  pe::run_sweep(pe::Suite::paper(), stack_spec(), config);
  return cache.flush();
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
  const pe::Suite& suite = pe::Suite::paper();
  const pe::SweepSpec spec = pair_zero_spec();
  pe::ScoreCache cache;
  pe::HarnessConfig config;
  config.score_cache = &cache;

  constexpr int kShards = 4;
  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < kShards; ++i) {
    shards.push_back(pe::run_shard(suite, spec, i, kShards, config));
  }
  const auto merged = pe::merge_shards(suite, spec, shards);
  const auto reference = pe::run_sweep(suite, spec, config);
  EXPECT_EQ(merged, reference);
}

TEST(ShardMerge, SingleShardEqualsSweepAndSurvivesJsonRoundTrip) {
  const pe::Suite& suite = pe::Suite::paper();
  const pe::SweepSpec spec = pair_zero_spec();
  pe::ScoreCache cache;
  pe::HarnessConfig config;
  config.score_cache = &cache;

  const pe::ShardResult shard = pe::run_shard(suite, spec, 0, 1, config);
  // Through the on-disk format, as the CI fan-in consumes it.
  std::vector<pe::ShardResult> parsed;
  std::string error;
  ASSERT_TRUE(pe::parse_shard_file(pe::shard_file_text({shard}), &parsed,
                                   &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], shard);

  const auto merged = pe::merge_shards(suite, spec, parsed);
  EXPECT_EQ(merged, pe::run_sweep(suite, spec, config));
}

TEST(ShardMerge, RejectsMissingAndDuplicateUnits) {
  const pe::Suite& suite = pe::Suite::paper();
  const pe::SweepSpec spec = pair_zero_spec();
  pe::ScoreCache cache;
  pe::HarnessConfig config;
  config.score_cache = &cache;

  std::vector<pe::ShardResult> shards;
  for (int i = 0; i < 2; ++i) {
    shards.push_back(pe::run_shard(suite, spec, i, 2, config));
  }
  // Missing: drop one shard entirely.
  EXPECT_THROW(pe::merge_shards(suite, spec, {shards[0]}),
               std::runtime_error);
  // Duplicate: the same shard twice.
  EXPECT_THROW(
      pe::merge_shards(suite, spec, {shards[0], shards[1], shards[1]}),
      std::runtime_error);
  // Configuration mismatch: different seed (a different spec hash).
  auto reseeded = shards;
  reseeded[1].spec.seed ^= 1;
  EXPECT_THROW(pe::merge_shards(suite, spec, reseeded), std::runtime_error);
}

TEST(ShardMerge, RejectsMixedEngineShards) {
  // Engines are bit-identical by contract, so a mixed set is not a score
  // problem — it means the worker fleet was misconfigured, and the merge
  // must refuse rather than paper over it.
  const pe::Suite& suite = pe::Suite::paper();
  const pe::SweepSpec spec = pair_zero_spec();
  pe::ScoreCache interp_cache, vm_cache;
  pe::HarnessConfig interp_config;
  interp_config.score_cache = &interp_cache;
  pe::HarnessConfig vm_config;
  vm_config.score_cache = &vm_cache;
  vm_config.engine = pareval::minic::EngineKind::Vm;

  const auto interp_shard = pe::run_shard(suite, spec, 0, 2, interp_config);
  const auto vm_shard = pe::run_shard(suite, spec, 1, 2, vm_config);
  EXPECT_EQ(interp_shard.engine, pareval::minic::EngineKind::Interp);
  EXPECT_EQ(vm_shard.engine, pareval::minic::EngineKind::Vm);
  EXPECT_THROW(pe::merge_shards(suite, spec, {interp_shard, vm_shard}),
               std::runtime_error);

  // A uniform VM fleet merges fine — and bit-identically to interp.
  const auto vm_other = pe::run_shard(suite, spec, 0, 2, vm_config);
  const auto vm_merged = pe::merge_shards(suite, spec, {vm_other, vm_shard});
  const auto interp_other = pe::run_shard(suite, spec, 1, 2, interp_config);
  const auto interp_merged =
      pe::merge_shards(suite, spec, {interp_shard, interp_other});
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
  const auto task = run_one_cell(one_cell_spec(
      "nanoXOR", pareval::llm::Technique::NonAgentic,
      pareval::llm::all_profiles()[0].name, pareval::llm::all_pairs()[0], 4));
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

  // A record's cell and sample are JSON integers in [0, INT_MAX].
  pe::SampleRecord rec;
  const auto good = pe::to_json(pe::SampleRecord{3, 1, {}});
  ASSERT_TRUE(pe::from_json(good, &rec));
  EXPECT_EQ(rec.cell, 3);
  EXPECT_EQ(rec.sample, 1);
  for (const char* field : {"cell", "sample"}) {
    for (const ps::Json& bad :
         {ps::Json(1e300), ps::Json(-1e300), ps::Json(1.5), ps::Json(2.0),
          ps::Json(-1), ps::Json(2147483648LL), ps::Json("1")}) {
      auto j = good;
      j.set(field, bad);
      EXPECT_FALSE(pe::from_json(j, &rec)) << field << " = " << bad.dump();
    }
  }

  // So are a task's counters and a shard's index and count: a fraction, a
  // negative and an int-wrapping value are rejected, not cast.
  const std::vector<ps::Json> bad_counts = {ps::Json(2.5), ps::Json(-1),
                                            ps::Json(4294967296LL)};
  const auto task = pe::to_json(pe::TaskResult{});
  ASSERT_TRUE(pe::from_json(task, &t));
  for (const char* field : {"samples", "built_overall", "passed_overall",
                            "built_codeonly", "passed_codeonly"}) {
    for (const ps::Json& bad : bad_counts) {
      auto j = task;
      j.set(field, bad);
      EXPECT_FALSE(pe::from_json(j, &t)) << field << " = " << bad.dump();
    }
  }
  pe::ShardResult shard;
  shard.spec = pair_zero_spec();
  shard.shard_count = 1;
  const auto shard_json = pe::to_json(shard);
  pe::ShardResult parsed;
  ASSERT_TRUE(pe::from_json(shard_json, &parsed));
  EXPECT_EQ(parsed, shard);
  for (const char* field : {"shard_index", "shard_count"}) {
    for (const ps::Json& bad : bad_counts) {
      auto j = shard_json;
      j.set(field, bad);
      EXPECT_FALSE(pe::from_json(j, &parsed)) << field << " = " << bad.dump();
    }
  }
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
  cache.flush();
  ASSERT_EQ(journal_counts(cache, "records_appended")["score.journal"], 1);

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
  const std::size_t flushed = cache.flush();
  const auto appended = journal_counts(cache, "records_appended");
  EXPECT_EQ(appended.at("score.journal"), 1);
  EXPECT_EQ(flushed, total(appended));  // flush() counts every stream
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
    worker_a.flush();
    EXPECT_EQ(journal_counts(worker_a, "records_appended")["score.journal"],
              1);

    pareval::cache::Store store_b(dir_b);
    ASSERT_TRUE(store_b.open());
    pe::ScoreCache worker_b;
    worker_b.attach(store_b);
    worker_b.score(*micro, micro->repos.at(pareval::apps::Model::Cuda),
                   pareval::apps::Model::Cuda);
    worker_b.flush();
    EXPECT_EQ(journal_counts(worker_b, "records_appended")["score.journal"],
              1);
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
    const std::size_t forwarded = fold.flush();  // imports reach target
    const auto appended = journal_counts(fold, "records_appended");
    EXPECT_EQ(forwarded, total(appended));
    EXPECT_EQ(appended.at("score.journal"), 2);
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
  cache.flush();
  ASSERT_EQ(journal_counts(cache, "records_appended")["score.journal"], 1);

  pareval::cache::Store reader(dir);
  pe::ScoreCache paper_reader;
  EXPECT_FALSE(paper_reader.attach(reader));  // default = paper hash: stale
  EXPECT_EQ(paper_reader.size(), 0u);
  pe::ScoreCache custom_reader;
  EXPECT_TRUE(custom_reader.attach(reader, custom_version));
  EXPECT_EQ(custom_reader.size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ScoreCacheStack, ColdSweepFlushPublishesEveryStream) {
  const std::string dir = temp_path("stack_cold_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());
  pe::ScoreCache cache;
  EXPECT_FALSE(cache.attach(store));
  const std::size_t flushed = cold_sweep_and_flush(cache);

  const auto appended = journal_counts(cache, "records_appended");
  ASSERT_EQ(appended.size(), 5u);
  for (const auto& [stream, count] : appended) {
    EXPECT_GT(count, 0) << stream;
  }
  EXPECT_EQ(appended.at("link.journal"),
            static_cast<long long>(cache.links().size()));
  EXPECT_EQ(flushed, total(appended));
  std::filesystem::remove_all(dir);
}

TEST(ScoreCacheStack, ImportForwardsEveryStream) {
  const std::string src_dir = temp_path("stack_import_source");
  const std::string dst_dir = temp_path("stack_import_target");
  std::filesystem::remove_all(src_dir);
  std::filesystem::remove_all(dst_dir);
  std::map<std::string, long long> written;
  {
    pareval::cache::Store store(src_dir);
    ASSERT_TRUE(store.open());
    pe::ScoreCache worker;
    worker.attach(store);
    cold_sweep_and_flush(worker);
    written = journal_counts(worker, "records_appended");
  }

  pareval::cache::Store target(dst_dir);
  ASSERT_TRUE(target.open());
  pe::ScoreCache fold;
  EXPECT_FALSE(fold.attach(target));
  pareval::cache::Store source(src_dir);
  EXPECT_TRUE(fold.import_store(source));
  EXPECT_EQ(fold.flush(), total(written));
  EXPECT_EQ(journal_counts(fold, "records_appended"), written);
  // Records the target already holds are never forwarded twice.
  EXPECT_TRUE(fold.import_store(source));
  EXPECT_EQ(fold.flush(), 0u);
  std::filesystem::remove_all(src_dir);
  std::filesystem::remove_all(dst_dir);
}

TEST(ScoreCacheStack, RepeatedAttachReplaysNothingUntilClear) {
  const std::string dir = temp_path("stack_reattach_store");
  std::filesystem::remove_all(dir);
  {
    pareval::cache::Store store(dir);
    ASSERT_TRUE(store.open());
    pe::ScoreCache writer;
    writer.attach(store);
    cold_sweep_and_flush(writer);
  }

  pareval::cache::Store reader(dir);
  pe::ScoreCache cache;
  ASSERT_TRUE(cache.attach(reader));
  const auto replayed = journal_counts(cache, "records_replayed");
  ASSERT_EQ(replayed.size(), 5u);
  for (const auto& [stream, count] : replayed) {
    EXPECT_GT(count, 0) << stream;
  }
  const std::size_t entries = cache.size();

  // The same store again — the whole stack, then each layer on its own,
  // as a caller that wires the layers by hand does: nothing replays, and
  // every attach returns its first result.
  EXPECT_TRUE(cache.attach(reader));
  EXPECT_TRUE(cache.tus().attach(reader, pe::scoring_pipeline_hash()));
  EXPECT_TRUE(cache.links().attach(reader, pe::scoring_pipeline_hash()));
  EXPECT_EQ(journal_counts(cache, "records_replayed"), replayed);
  EXPECT_EQ(cache.size(), entries);

  // clear() drops what the replay loaded, so the next attach replays.
  cache.clear();
  ASSERT_TRUE(cache.attach(reader));
  EXPECT_EQ(cache.size(), entries);
  for (const auto& [stream, count] :
       journal_counts(cache, "records_replayed")) {
    EXPECT_EQ(count, 2 * replayed.at(stream)) << stream;
  }
  std::filesystem::remove_all(dir);
}

TEST(ScoreCacheStack, StatsKeyOrderAndJournalBlocks) {
  auto keys = [](const ps::Json& j) {
    std::vector<std::string> out;
    for (const auto& [key, value] : j.members()) out.push_back(key);
    return out;
  };
  const std::vector<std::string> top = {"score", "builds", "tu", "link",
                                        "driver"};
  pe::ScoreCache cache;
  const ps::Json detached = cache.stats();
  EXPECT_EQ(keys(detached), top);
  EXPECT_TRUE(journal_counts(cache, "records_appended").empty());
  EXPECT_EQ(keys(detached["score"]),
            (std::vector<std::string>{"hits", "misses", "entries"}));
  EXPECT_EQ(keys(detached["driver"]),
            (std::vector<std::string>{"parses", "links", "tree_fallbacks"}));
  EXPECT_TRUE(detached["tu"]["dedupe_ratio"].is_number());

  const std::string dir = temp_path("stack_stats_store");
  std::filesystem::remove_all(dir);
  pareval::cache::Store store(dir);
  ASSERT_TRUE(store.open());
  cache.attach(store);
  const ps::Json attached = cache.stats();
  EXPECT_EQ(keys(attached), top);
  EXPECT_EQ(keys(attached["score"]),
            (std::vector<std::string>{"hits", "misses", "entries",
                                      "journal"}));
  EXPECT_EQ(keys(attached["tu"]),
            (std::vector<std::string>{
                "hits", "persisted_hits", "obj_hits", "misses", "lookups",
                "plan_hits", "entries", "plans", "dedupe_ratio", "journal",
                "plan_journal", "obj_journal"}));
  EXPECT_EQ(keys(attached["link"]),
            (std::vector<std::string>{"hits", "persisted_hits", "misses",
                                      "lookups", "entries", "journal"}));
  EXPECT_EQ(journal_counts(cache, "records_appended").size(), 5u);
  std::filesystem::remove_all(dir);
}

TEST(ShardFile, RejectsWrongFormatVersion) {
  pe::SweepSpec spec = pair_zero_spec();
  spec.samples_per_task = 1;
  pe::ScoreCache cache;
  pe::HarnessConfig config;
  config.score_cache = &cache;
  const auto shard =
      pe::run_shard(pe::Suite::paper(), spec, 0, 1, config);
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
  pe::SweepSpec spec = pair_zero_spec();
  spec.samples_per_task = 6;
  pe::ScoreCache cache;
  pe::HarnessConfig with_logs;
  with_logs.score_cache = &cache;
  pe::HarnessConfig without_logs = with_logs;
  without_logs.keep_logs = false;

  const auto full = pe::run_shard(pe::Suite::paper(), spec, 0, 1, with_logs);
  const auto lean =
      pe::run_shard(pe::Suite::paper(), spec, 0, 1, without_logs);

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

TEST(ShardFile, AbsentCellRecordsEveryAbortAndSweepsToNothing) {
  // llm.c has no gemini-1.5-flash non-agentic CUDA->OMP-offload
  // calibration: the cell is absent, so every unit aborts before
  // generating — all of them run, and all record the same reason.
  const pe::SweepSpec spec =
      one_cell_spec("llm.c", pareval::llm::Technique::NonAgentic,
                    "gemini-1.5-flash", pareval::llm::all_pairs()[0], 3);
  const pe::Suite& suite = pe::Suite::paper();
  for (const unsigned threads : {1u, 0u}) {
    SCOPED_TRACE(threads == 1 ? "serial" : "pooled");
    pe::HarnessConfig config;
    config.threads = threads;
    const pe::ShardResult shard = pe::run_shard(suite, spec, 0, 1, config);
    ASSERT_EQ(shard.records.size(), 3u);
    const std::string& reason = shard.records[0].run.abort_reason;
    EXPECT_FALSE(reason.empty());
    for (const pe::SampleRecord& record : shard.records) {
      EXPECT_FALSE(record.run.generated);
      EXPECT_EQ(record.run.abort_reason, reason);
    }

    std::vector<pe::ShardResult> parsed;
    std::string error;
    ASSERT_TRUE(pe::parse_shard_file(pe::shard_file_text({shard}), &parsed,
                                     &error))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], shard);

    const pe::TaskResult task = run_one_cell(spec, config);
    EXPECT_FALSE(task.ran);
    EXPECT_EQ(task.samples, 0);
    EXPECT_EQ(task.abort_reason, reason);
    EXPECT_TRUE(task.outcomes.empty());
  }
}
