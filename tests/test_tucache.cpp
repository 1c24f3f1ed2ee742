// TU compile cache tests: the invalidation properties the content-
// addressed key promises (editing a transitively-included header
// invalidates exactly the dependent TUs; caps/defines/toolchain changes
// miss; re-registering identical content hits), bit-identity of cached vs
// uncached diagnostics and downstream StagedScores across the seed
// corpus, journaled-store round trips (including failed-plan
// reconstruction, version-mismatch cold starts, and the capacity bound),
// and concurrent compile determinism and exact counts across thread
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buildsim/builder.hpp"
#include "buildsim/tucache.hpp"
#include "eval/harness.hpp"
#include "execsim/driver.hpp"
#include "support/cachestore.hpp"
#include "support/io.hpp"
#include "support/strings.hpp"

using namespace pareval;
using buildsim::TuCompileCache;
using minic::Capabilities;
using vfs::Repo;

namespace {

Repo two_tu_repo() {
  // a.cpp depends (transitively) on inc/top.h -> inc/deep.h; b.cpp on
  // nothing but itself. One Makefile compiles and links both.
  Repo repo;
  repo.write("Makefile",
             "all: app\n"
             "app: a.o b.o\n"
             "\tg++ a.o b.o -o app\n"
             "a.o: a.cpp\n"
             "\tg++ -c a.cpp -o a.o\n"
             "b.o: b.cpp\n"
             "\tg++ -c b.cpp -o b.o\n");
  repo.write("a.cpp",
             "#include \"inc/top.h\"\n"
             "int a_value() { return DEEP_V; }\n");
  repo.write("inc/top.h", "#include \"deep.h\"\n");
  repo.write("inc/deep.h", "#define DEEP_V 5\n");
  repo.write("b.cpp",
             "#include <stdio.h>\n"
             "int a_value();\n"
             "int main() { printf(\"%d\\n\", a_value()); return 0; }\n");
  return repo;
}

/// Compile one source of `repo` through `cache` with default caps/defines.
std::shared_ptr<minic::TranslationUnit> compile(TuCompileCache& cache,
                                                const Repo& repo,
                                                const std::string& source,
                                                const Capabilities& caps = {},
                                                const char* tool = "gcc") {
  return cache.compile(repo, source, caps, {}, tool);
}

Repo failing_makefile_repo() {
  // The SWE-agent defect: recipe TABs replaced by spaces — the build
  // fails before any TU compiles, the canonical failed-plan case.
  Repo repo;
  repo.write("Makefile", "all: app\n    g++ main.cpp -o app\n");
  repo.write("main.cpp", "int main() { return 0; }\n");
  return repo;
}

/// A fresh (removed) store directory for one test.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// The persisted round trip every warm start goes through: `from`
/// attaches to `writer` and flushes, then `to` replays the same directory
/// through `reader`. False when nothing could be replayed.
bool round_trip(TuCompileCache& from, cache::Store& writer,
                TuCompileCache& to, cache::Store& reader,
                std::uint64_t version) {
  if (!writer.open()) return false;
  from.attach(writer, version);
  from.flush();
  return to.attach(reader, version);
}

Repo failing_tu_repo() {
  Repo repo;
  repo.write("Makefile",
             "all: app\napp: main.cpp\n\tg++ main.cpp -o app\n");
  repo.write("main.cpp",
             "#include \"helper.h\"\n"
             "int main() { return undeclared_thing(); }\n");
  repo.write("helper.h", "int helper() { return 1; }\n");
  return repo;
}

}  // namespace

// ----------------------------------------------------- invalidation -----

TEST(TuCache, IdenticalRebuildSharesEveryTu) {
  TuCompileCache cache;
  const Repo repo = two_tu_repo();
  const auto r1 = buildsim::build_repo(repo, "", &cache);
  ASSERT_TRUE(r1.ok) << r1.log;
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // The second build differs only in its build file — the TU cache's
  // raison d'être: every TU compile is shared.
  Repo repo2 = repo;
  repo2.write("Makefile",
              "all: prog\n"
              "prog: a.o b.o\n"
              "\tg++ a.o b.o -o prog\n"
              "a.o: a.cpp\n"
              "\tg++ -c a.cpp -o a.o\n"
              "b.o: b.cpp\n"
              "\tg++ -c b.cpp -o b.o\n");
  const auto r2 = buildsim::build_repo(repo2, "", &cache);
  ASSERT_TRUE(r2.ok) << r2.log;
  EXPECT_EQ(cache.misses(), 2u);  // no new compiles
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(TuCache, TransitiveHeaderEditInvalidatesExactlyDependents) {
  TuCompileCache cache;
  const Repo repo = two_tu_repo();
  const auto r1 = buildsim::build_repo(repo, "", &cache);
  ASSERT_TRUE(r1.ok) << r1.log;
  ASSERT_EQ(cache.misses(), 2u);

  // Identify the cached b.cpp TU so we can prove it is *shared*, not
  // merely re-compiled to the same thing.
  const auto b_before = compile(cache, repo, "b.cpp");
  EXPECT_EQ(cache.hits(), 1u);  // b.cpp was cached by the build

  Repo edited = repo;
  edited.write("inc/deep.h", "#define DEEP_V 6\n");  // transitive dep of a.cpp
  const auto r2 = buildsim::build_repo(edited, "", &cache);
  ASSERT_TRUE(r2.ok) << r2.log;
  // Exactly one TU (a.cpp) was invalidated and recompiled; b.cpp hit and
  // is the identical shared object.
  EXPECT_EQ(cache.misses(), 3u);
  const auto b_after = compile(cache, edited, "b.cpp");
  EXPECT_EQ(b_before.get(), b_after.get());

  // And the recompiled a.cpp really saw the edit.
  const auto run = execsim::run_executable(*r2.exe, {});
  EXPECT_EQ(run.stdout_text, "6\n");
}

TEST(TuCache, MainSourceEditInvalidates) {
  TuCompileCache cache;
  Repo repo = two_tu_repo();
  compile(cache, repo, "b.cpp");
  EXPECT_EQ(cache.misses(), 1u);
  repo.write("b.cpp", repo.at("b.cpp") + "// trailing comment\n");
  compile(cache, repo, "b.cpp");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TuCache, WhitespaceIdenticalReregistrationHits) {
  TuCompileCache cache;
  const Repo repo = two_tu_repo();
  compile(cache, repo, "a.cpp");
  EXPECT_EQ(cache.misses(), 1u);

  // Rebuild the repo object from scratch with byte-identical sources (and
  // an unrelated extra file): the key is content-addressed per TU, not
  // whole-repo, so this must hit.
  Repo again;
  for (const auto& f : repo.files()) again.write(f.path, f.content);
  again.write("README.md", "unrelated\n");
  compile(cache, again, "a.cpp");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TuCache, CapsDefinesToolchainChangesMiss) {
  TuCompileCache cache;
  Repo repo;
  repo.write("main.cpp", "int main() { return 0; }\n");
  compile(cache, repo, "main.cpp");
  EXPECT_EQ(cache.misses(), 1u);

  Capabilities omp;
  omp.openmp = true;
  compile(cache, repo, "main.cpp", omp);         // caps change
  EXPECT_EQ(cache.misses(), 2u);

  cache.compile(repo, "main.cpp", {}, {{"N", "64"}}, "gcc");  // defines
  EXPECT_EQ(cache.misses(), 3u);

  compile(cache, repo, "main.cpp", {}, "clang");  // toolchain id
  EXPECT_EQ(cache.misses(), 4u);

  // Define *order* is semantic in the preprocessor (later wins): a
  // reordered list is a distinct key, never a false hit.
  cache.compile(repo, "main.cpp", {}, {{"A", "1"}, {"B", "2"}}, "gcc");
  cache.compile(repo, "main.cpp", {}, {{"B", "2"}, {"A", "1"}}, "gcc");
  EXPECT_EQ(cache.misses(), 6u);

  // And every configuration, re-requested identically, hits.
  compile(cache, repo, "main.cpp");
  compile(cache, repo, "main.cpp", omp);
  compile(cache, repo, "main.cpp", {}, "clang");
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 6u);
}

TEST(TuCache, AppearingQuotedIncludeTargetInvalidates) {
  // main.cpp quotes "stdio.h", which today falls through to the system
  // header. If a repo file of that name appears, resolution changes — the
  // missing-probe half of the manifest must catch it.
  TuCompileCache cache;
  Repo repo;
  repo.write("main.cpp",
             "#include \"stdio.h\"\n"
             "int main() { printf(\"x\\n\"); return 0; }\n");
  const auto tu1 = compile(cache, repo, "main.cpp");
  ASSERT_FALSE(tu1->diags.has_errors());
  EXPECT_EQ(cache.misses(), 1u);

  Repo shadowed = repo;
  shadowed.write("stdio.h", "#define printf not_printf\n");
  const auto tu2 = compile(cache, shadowed, "main.cpp");
  EXPECT_EQ(cache.misses(), 2u);  // not a (stale) hit
  EXPECT_TRUE(tu2->diags.has_errors());  // the shadow header breaks it
}

// ------------------------------------------------------ bit-identity ----

TEST(TuCache, CachedVsUncachedDiagnosticsBitIdentical) {
  const Repo repo = failing_tu_repo();
  const auto direct =
      execsim::compile_tu(repo, "main.cpp", Capabilities{}, {});
  ASSERT_TRUE(direct->diags.has_errors());

  TuCompileCache cache;
  const auto cold = compile(cache, repo, "main.cpp");
  const auto warm = compile(cache, repo, "main.cpp");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cold.get(), warm.get());  // shared, not recompiled
  EXPECT_EQ(direct->diags.render(), cold->diags.render());

  // Persisted round trip: a fresh cache replaying the store reconstructs
  // the failed TU from its serialized outcome — identical diagnostics, no
  // compile performed.
  const std::string dir = fresh_dir("tu_cache_diag_store");
  cache::Store writer(dir), reader(dir);
  TuCompileCache loaded;
  ASSERT_TRUE(round_trip(cache, writer, loaded, reader, 42));
  const auto reconstructed = compile(loaded, repo, "main.cpp");
  EXPECT_EQ(loaded.persisted_hits(), 1u);
  EXPECT_EQ(loaded.misses(), 0u);
  EXPECT_EQ(direct->diags.render(), reconstructed->diags.render());
  EXPECT_EQ(direct->resolved_files, reconstructed->resolved_files);
  std::filesystem::remove_all(dir);
}

TEST(TuCache, FullBuildBitIdenticalThroughCache) {
  // Failing and succeeding builds, uncached vs TU-cached vs warm-store
  // plan reconstruction: BuildResult logs and diagnostics must match to
  // the byte.
  for (const Repo& repo : {failing_makefile_repo(), failing_tu_repo(),
                           two_tu_repo()}) {
    const auto uncached = buildsim::build_repo(repo);

    TuCompileCache cache;
    const auto cached = buildsim::build_repo(repo, "", &cache);
    EXPECT_EQ(uncached.ok, cached.ok);
    EXPECT_EQ(uncached.log, cached.log);
    EXPECT_EQ(uncached.diags.render(), cached.diags.render());
    EXPECT_EQ(uncached.build_system, cached.build_system);
    EXPECT_EQ(uncached.caps, cached.caps);

    const std::string dir = fresh_dir("tu_cache_build_store");
    cache::Store writer(dir), reader(dir);
    TuCompileCache loaded;
    ASSERT_TRUE(round_trip(cache, writer, loaded, reader, 7));
    const auto warm = buildsim::build_repo(repo, "", &loaded);
    EXPECT_EQ(uncached.ok, warm.ok);
    EXPECT_EQ(uncached.log, warm.log);
    EXPECT_EQ(uncached.diags.render(), warm.diags.render());
    EXPECT_EQ(uncached.sole_error_category(), warm.sole_error_category());
    if (!uncached.ok) {
      // A persisted failed plan skips the whole build.
      EXPECT_EQ(loaded.plan_hits(), 1u);
      EXPECT_EQ(loaded.misses(), 0u);
      EXPECT_FALSE(warm.exe.has_value());
    } else {
      // Successful builds re-link a live executable.
      ASSERT_TRUE(warm.exe.has_value());
      EXPECT_EQ(execsim::run_executable(*uncached.exe, {}).stdout_text,
                execsim::run_executable(*warm.exe, {}).stdout_text);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(TuCache, FailedBuildWithLinkedTargetIsNeverPlanReconstructed) {
  // A multi-target project can fail AFTER linking an earlier target: the
  // BuildResult is ok=false but carries a live executable. Such builds
  // must never be served from a persisted plan (which cannot carry the
  // executable) — cold and warm build_repo stay bit-identical, exe
  // included.
  Repo repo;
  repo.write("CMakeLists.txt",
             "cmake_minimum_required(VERSION 3.16)\n"
             "project(multi LANGUAGES CXX)\n"
             "add_executable(good good.cpp)\n"
             "add_executable(bad bad.cpp)\n");
  repo.write("good.cpp", "int main() { return 0; }\n");
  repo.write("bad.cpp", "int main() { return undeclared_thing(); }\n");

  const auto cold = buildsim::build_repo(repo);
  ASSERT_FALSE(cold.ok);
  ASSERT_TRUE(cold.exe.has_value());  // the premise: failed, yet linked

  TuCompileCache cache;
  const auto cached = buildsim::build_repo(repo, "", &cache);
  const std::string dir = fresh_dir("tu_cache_multi_target_store");
  cache::Store writer(dir), reader(dir);
  TuCompileCache loaded;
  ASSERT_TRUE(round_trip(cache, writer, loaded, reader, 11));
  const auto warm = buildsim::build_repo(repo, "", &loaded);
  EXPECT_EQ(loaded.plan_hits(), 0u);  // rebuilt, not reconstructed
  EXPECT_EQ(cold.ok, warm.ok);
  EXPECT_EQ(cold.log, warm.log);
  EXPECT_EQ(cold.exe.has_value(), warm.exe.has_value());
  std::filesystem::remove_all(dir);
}

TEST(TuCache, SeedCorpusStagedScoresBitIdentical) {
  // The end-to-end gate: one pair of the paper sweep, run (1) uncached,
  // (2) through a fresh three-layer ScoreCache, and (3) through a cache
  // whose TU layer alone was persisted and replayed with the object layer
  // off (score layer cold, so Build stages actually consult the TU
  // streams — failed plans reconstruct, successful builds recompile). All
  // TaskResults, including per-stage logs, must be bit-identical.
  const eval::Suite& suite = eval::Suite::paper();
  eval::SweepSpec spec = eval::pair_spec(llm::all_pairs()[0]);
  spec.samples_per_task = 4;
  eval::HarnessConfig uncached;
  uncached.threads = 1;
  const auto reference = eval::run_sweep(suite, spec, uncached);

  eval::ScoreCache cache;
  eval::HarnessConfig cached = uncached;
  cached.score_cache = &cache;
  const auto through_cache = eval::run_sweep(suite, spec, cached);
  EXPECT_EQ(reference, through_cache);
  EXPECT_GT(cache.tus().lookups(), 0u);
  EXPECT_LT(cache.tus().misses(), cache.tus().lookups())
      << "the dedupe must be real: TU compiles strictly fewer than "
         "lookups";

  const std::string dir = fresh_dir("tu_cache_corpus_store");
  cache::Store writer(dir), reader(dir);
  eval::ScoreCache warm;  // score layer cold, TU layer from the store
  warm.enable_object_layer(false);
  ASSERT_TRUE(round_trip(cache.tus(), writer, warm.tus(), reader,
                         eval::scoring_pipeline_hash()));
  eval::HarnessConfig warm_cfg = uncached;
  warm_cfg.score_cache = &warm;
  const auto through_store = eval::run_sweep(suite, spec, warm_cfg);
  EXPECT_EQ(reference, through_store);
  EXPECT_GT(warm.tus().plan_hits(), 0u)
      << "failed builds must reconstruct from persisted plans";
  EXPECT_GT(warm.tus().misses(), 0u)
      << "successful outcome-only entries must recompile";
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- persistence ----

TEST(TuCache, PersistRoundTripAndVersionMismatchColdStart) {
  TuCompileCache cache;
  const Repo good = two_tu_repo();
  const Repo bad = failing_makefile_repo();
  ASSERT_TRUE(buildsim::build_repo(good, "", &cache).ok);
  ASSERT_FALSE(buildsim::build_repo(bad, "", &cache).ok);
  EXPECT_EQ(cache.size(), 2u);        // a.cpp, b.cpp
  EXPECT_EQ(cache.plan_count(), 2u);  // one ok plan, one failed plan

  const std::string dir = fresh_dir("tu_cache_roundtrip_store");
  cache::Store writer(dir), reader(dir);
  TuCompileCache same_version;
  ASSERT_TRUE(round_trip(cache, writer, same_version, reader, 1234));
  EXPECT_EQ(same_version.size(), 2u);
  EXPECT_EQ(same_version.plan_count(), 2u);
  // Round trip is stable: forwarding the replayed cache into a second
  // store reproduces the first store's journals byte for byte.
  const std::string dir2 = fresh_dir("tu_cache_roundtrip_store2");
  cache::Store second(dir2);
  ASSERT_TRUE(second.open());
  TuCompileCache forward;
  forward.attach(second, 1234);
  ASSERT_TRUE(forward.import_store(reader, 1234));
  forward.flush();
  for (const std::string stream :
       {TuCompileCache::kTuStream, TuCompileCache::kPlanStream}) {
    const auto first_bytes = support::read_file(dir + "/" + stream +
                                                ".journal");
    const auto second_bytes = support::read_file(dir2 + "/" + stream +
                                                 ".journal");
    ASSERT_TRUE(first_bytes.has_value());
    ASSERT_TRUE(second_bytes.has_value());
    EXPECT_EQ(*first_bytes, *second_bytes) << stream;
  }

  TuCompileCache other_version;
  EXPECT_FALSE(other_version.attach(reader, 999));  // stale pipeline
  EXPECT_EQ(other_version.size(), 0u);
  EXPECT_EQ(other_version.plan_count(), 0u);

  // Malformed stream indexes replay nothing.
  for (const std::string stream :
       {TuCompileCache::kTuStream, TuCompileCache::kPlanStream}) {
    std::ofstream out(dir + "/" + stream + ".idx", std::ios::trunc);
    out << "{\"format\":\"pareval-cachestore-v1\",";
  }
  TuCompileCache malformed;
  EXPECT_FALSE(malformed.attach(reader, 1234));
  EXPECT_EQ(malformed.size(), 0u);
  EXPECT_EQ(malformed.plan_count(), 0u);

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(TuCache, JournalStoreRoundTripReconstructsFailedPlans) {
  const std::string dir =
      ::testing::TempDir() + "tucache_journal_roundtrip_store";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  cache::Store store(dir);
  ASSERT_TRUE(store.open());

  TuCompileCache cold;
  EXPECT_FALSE(cold.attach(store, 1234));  // empty store starts cold
  const Repo good = two_tu_repo();
  const Repo bad = failing_makefile_repo();
  ASSERT_TRUE(buildsim::build_repo(good, "", &cold).ok);
  ASSERT_FALSE(buildsim::build_repo(bad, "", &cold).ok);
  EXPECT_GT(cold.flush(), 0u);
  EXPECT_EQ(cold.flush(), 0u);  // idempotent: everything already published

  // Compaction must not change what a fresh reader reconstructs.
  ASSERT_TRUE(store.compact(TuCompileCache::kTuStream, 1234));
  ASSERT_TRUE(store.compact(TuCompileCache::kPlanStream, 1234));

  cache::Store reader(dir);
  ASSERT_TRUE(reader.open());
  TuCompileCache warm;
  EXPECT_TRUE(warm.attach(reader, 1234));
  EXPECT_EQ(warm.size(), 2u);        // a.cpp, b.cpp
  EXPECT_EQ(warm.plan_count(), 2u);  // one ok plan, one failed plan

  // The replayed failed plan short-circuits a rebuild of the broken repo.
  ASSERT_FALSE(buildsim::build_repo(bad, "", &warm).ok);
  EXPECT_EQ(warm.plan_hits(), 1u);

  TuCompileCache stale;
  EXPECT_FALSE(stale.attach(reader, 999));  // stale pipeline cold-starts
  EXPECT_EQ(stale.size(), 0u);
  EXPECT_EQ(stale.plan_count(), 0u);

  std::filesystem::remove_all(dir, ec);
}

TEST(TuCache, CapacityBound) {
  TuCompileCache cache;
  cache.set_capacity(16);  // one entry per shard
  Repo repo;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "f" + std::to_string(i) + ".cpp";
    repo.write(name, "int v" + std::to_string(i) + "() { return " +
                         std::to_string(i) + "; }\n");
  }
  for (int i = 0; i < 64; ++i) {
    compile(cache, repo, "f" + std::to_string(i) + ".cpp");
  }
  EXPECT_EQ(cache.misses(), 64u);
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(TuCache, PlanCapacityBound) {
  // Plans respect the same capacity bound as TU entries — whether
  // recorded live, replayed from a store, or present when the bound
  // shrinks.
  TuCompileCache cache;
  cache.set_capacity(16);
  buildsim::BuildResult failed;
  failed.ok = false;
  failed.log = "error: synthetic\n";
  for (std::uint64_t k = 1; k <= 64; ++k) {
    cache.record_plan(k, failed, {});
  }
  EXPECT_LE(cache.plan_count(), 16u);
  EXPECT_GT(cache.plan_count(), 0u);

  TuCompileCache unbounded;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    unbounded.record_plan(k, failed, {});
  }
  const std::string dir = fresh_dir("tu_cache_plan_bound_store");
  cache::Store store(dir);
  ASSERT_TRUE(store.open());
  unbounded.attach(store, 3);
  ASSERT_EQ(unbounded.flush(), 64u);
  TuCompileCache bounded;
  bounded.set_capacity(16);
  ASSERT_TRUE(bounded.attach(store, 3));  // replayed plans are bounded too
  EXPECT_LE(bounded.plan_count(), 16u);

  TuCompileCache shrunk;
  ASSERT_TRUE(shrunk.attach(store, 3));
  EXPECT_EQ(shrunk.plan_count(), 64u);
  shrunk.set_capacity(16);  // shrinking prunes existing plans
  EXPECT_LE(shrunk.plan_count(), 16u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- concurrency ----

TEST(TuCache, ConcurrentCompileDeterministicAcrossThreadCounts) {
  // Serial reference: every build's log through a fresh cache.
  std::vector<Repo> repos;
  repos.push_back(two_tu_repo());
  repos.push_back(failing_tu_repo());
  repos.push_back(failing_makefile_repo());
  {
    Repo edited = two_tu_repo();
    edited.write("inc/deep.h", "#define DEEP_V 9\n");
    repos.push_back(edited);
  }
  std::vector<std::string> reference;
  for (const Repo& r : repos) reference.push_back(buildsim::build_repo(r).log);
  // Exact counts: single-flight compiles make a shared cache's misses and
  // plans those of a fresh serial cache, whatever the thread count.
  TuCompileCache serial;
  for (const Repo& r : repos) buildsim::build_repo(r, "", &serial);

  for (const unsigned threads : {2u, 8u}) {
    TuCompileCache shared;
    constexpr int kRounds = 8;
    std::vector<std::string> logs(repos.size() * kRounds);
    std::vector<std::thread> workers;
    const std::size_t per_thread =
        (logs.size() + threads - 1) / threads;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t begin = t * per_thread;
        const std::size_t end =
            std::min(logs.size(), begin + per_thread);
        for (std::size_t i = begin; i < end; ++i) {
          logs[i] =
              buildsim::build_repo(repos[i % repos.size()], "", &shared)
                  .log;
        }
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t i = 0; i < logs.size(); ++i) {
      EXPECT_EQ(logs[i], reference[i % repos.size()])
          << "thread count " << threads << ", unit " << i;
    }
    // Counter consistency on the shared cache (TSan guards the races).
    EXPECT_EQ(shared.lookups(),
              shared.hits() + shared.persisted_hits() + shared.misses());
    EXPECT_GT(shared.hits(), 0u);
    EXPECT_EQ(shared.misses(), serial.misses()) << threads << " threads";
    EXPECT_EQ(shared.plan_count(), serial.plan_count())
        << threads << " threads";
  }
}
