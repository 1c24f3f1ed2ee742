// Warm-object codec tests: TU payload round trips are bit-identical
// (encode -> decode -> re-encode equality over the whole seed corpus) and
// a program relinked from decoded TUs runs bit-identically under both
// engines, any torn / bit-flipped / version-bumped payload decodes to a
// clean cold miss (never a wrong object), and the end-to-end warm-object
// store (obj1 + lnk1 streams through a cache::Store) rebuilds a repository
// with zero source parses and zero links while producing a bit-identical
// BuildResult. No layer persists bytecode: flush compiles nothing, and
// only the Vm ever fills an executable's ChunkPack.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "buildsim/builder.hpp"
#include "buildsim/linkcache.hpp"
#include "buildsim/tucache.hpp"
#include "execsim/driver.hpp"
#include "execsim/registry.hpp"
#include "minic/bytecode.hpp"
#include "minic/objcodec.hpp"
#include "minic/runio.hpp"
#include "support/cachestore.hpp"
#include "translate/transpile.hpp"

using namespace pareval;
using buildsim::LinkCache;
using buildsim::TuCompileCache;

namespace {

std::string temp_store_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

struct SeedBuild {
  const apps::AppSpec* app = nullptr;
  buildsim::BuildResult build;
};

/// Every successfully linked seed implementation (the population the
/// object store persists), with the app whose tests it runs.
std::vector<SeedBuild> seed_builds() {
  std::vector<SeedBuild> builds;
  for (const apps::AppSpec* app : apps::all_apps()) {
    for (const apps::Model m : app->available) {
      auto build = buildsim::build_repo(app->repos.at(m));
      if (build.ok) builds.push_back({app, std::move(build)});
    }
  }
  return builds;
}

constexpr minic::EngineKind kEngines[] = {minic::EngineKind::Interp,
                                          minic::EngineKind::Vm};

}  // namespace

TEST(ObjCodec, TuRoundTripIsBitIdentical) {
  std::size_t tus = 0;
  for (const auto& [app, build] : seed_builds()) {
    for (const auto& tu : build.exe->program.tus) {
      const std::string first = minic::encode_tu(*tu);
      ASSERT_FALSE(first.empty());
      const auto decoded = minic::decode_tu(first);
      ASSERT_NE(decoded, nullptr);
      // Re-encoding the decoded TU must reproduce the payload byte for
      // byte — the codec is a bijection on everything it persists.
      EXPECT_EQ(minic::encode_tu(*decoded), first);
      ++tus;
    }
  }
  EXPECT_GT(tus, 0u);
}

TEST(ObjCodec, DecodedTuRelinksAndRunsBitIdentical) {
  for (const auto& [app, build] : seed_builds()) {
    const auto& exe = *build.exe;
    // Round-trip the TUs and relink: decoded ASTs must be semantically
    // indistinguishable, so every app test's full RunResult (`steps`
    // included) matches the original program's under both engines.
    std::vector<std::shared_ptr<minic::TranslationUnit>> decoded;
    for (const auto& tu : exe.program.tus) {
      auto copy = minic::decode_tu(minic::encode_tu(*tu));
      ASSERT_NE(copy, nullptr);
      decoded.push_back(std::move(copy));
    }
    const auto relinked = execsim::link_tus(decoded, exe.program.caps);
    ASSERT_TRUE(relinked.ok());
    for (const auto& tc : app->tests) {
      for (const auto engine : kEngines) {
        const auto want = execsim::run_executable(exe, tc.args,
                                                  minic::RunLimits{}, engine);
        const auto got = execsim::run_executable(relinked, tc.args,
                                                 minic::RunLimits{}, engine);
        EXPECT_EQ(minic::to_json(got).dump(), minic::to_json(want).dump())
            << app->name << " engine " << minic::engine_key(engine);
      }
    }
  }
}

TEST(ObjCodec, TruncatedPayloadIsACleanMiss) {
  const auto builds = seed_builds();
  ASSERT_FALSE(builds.empty());
  const std::string payload =
      minic::encode_tu(*builds.front().build.exe->program.tus.front());
  // Every proper prefix must decode to nullptr — a torn journal record
  // can never resurrect as a wrong TU.
  for (std::size_t len = 0; len < payload.size();
       len += (payload.size() / 64) + 1) {
    EXPECT_EQ(minic::decode_tu(payload.substr(0, len)), nullptr) << len;
  }
}

TEST(ObjCodec, BitFlippedPayloadIsACleanMiss) {
  const auto builds = seed_builds();
  ASSERT_FALSE(builds.empty());
  const std::string payload =
      minic::encode_tu(*builds.front().build.exe->program.tus.front());
  // A strided sample of single-bit corruptions across the payload
  // (header, seal, and body): the content hash must reject all of them.
  for (std::size_t pos = 0; pos < payload.size();
       pos += (payload.size() / 97) + 1) {
    std::string corrupt = payload;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    EXPECT_EQ(minic::decode_tu(corrupt), nullptr) << pos;
  }
}

TEST(ObjCodec, VersionBumpedPayloadIsACleanMiss) {
  const auto builds = seed_builds();
  ASSERT_FALSE(builds.empty());
  const std::string payload =
      minic::encode_tu(*builds.front().build.exe->program.tus.front());
  // The format version is the u32 after the 4-byte magic; a payload from
  // any other codec version must cold-miss, not misparse.
  std::string bumped = payload;
  ASSERT_GT(bumped.size(), 8u);
  bumped[4] = static_cast<char>(bumped[4] + 1);
  EXPECT_EQ(minic::decode_tu(bumped), nullptr);
}

TEST(ObjCodec, ObjStreamVersionFoldsTheFormatVersion) {
  // Same pipeline, different codec format -> different stream version:
  // a codec bump cold-starts obj1/lnk1 without touching legacy streams.
  EXPECT_NE(minic::obj_stream_version(1234), 1234u);
  EXPECT_NE(minic::obj_stream_version(1), minic::obj_stream_version(2));
}

TEST(ObjCodec, WarmStoreRebuildsWithZeroParsesAndZeroLinks) {
  const std::string dir = temp_store_dir("obj_warm_store");
  constexpr std::uint64_t kVersion = 77;
  const apps::AppSpec* app = apps::all_apps().front();
  const vfs::Repo& repo = app->repos.at(app->available.front());

  // Cold pass: build through fresh caches attached to the store, flush.
  buildsim::BuildResult cold;
  {
    cache::Store store(dir);
    ASSERT_TRUE(store.open());
    TuCompileCache tus;
    LinkCache links;
    tus.attach(store, kVersion);
    links.attach(store, kVersion);
    cold = buildsim::build_repo(repo, "", &tus, std::nullopt, &links);
    ASSERT_TRUE(cold.ok);
    EXPECT_GT(tus.flush(), 0u);
    EXPECT_GT(links.flush(), 0u);
  }

  // Warm pass: brand-new caches replay the store; the whole front end
  // (parse + sema + link) must be elided.
  cache::Store store(dir);
  TuCompileCache tus;
  LinkCache links;
  ASSERT_TRUE(tus.attach(store, kVersion));
  ASSERT_TRUE(links.attach(store, kVersion));
  const execsim::DriverCounters before = execsim::driver_counters();
  const auto warm = buildsim::build_repo(repo, "", &tus, std::nullopt,
                                         &links);
  const execsim::DriverCounters after = execsim::driver_counters();
  EXPECT_EQ(after.parses, before.parses);
  EXPECT_EQ(after.links, before.links);
  EXPECT_GT(tus.obj_hits(), 0u);
  // A fresh cache serves the link from its replayed payload.
  EXPECT_EQ(links.persisted_hits(), 1u);
  EXPECT_EQ(links.misses(), 0u);

  // The warm BuildResult is observably identical to the cold one.
  EXPECT_TRUE(warm.ok);
  EXPECT_EQ(warm.log, cold.log);
  EXPECT_EQ(warm.build_system, cold.build_system);
  EXPECT_EQ(warm.diags.all().size(), cold.diags.all().size());
  ASSERT_TRUE(warm.exe.has_value());
  // ...and its executable runs the app's tests bit-identically, under
  // both engines (the VM compiles the rebuilt program's chunks lazily).
  for (const auto& tc : app->tests) {
    const auto ref = execsim::run_executable(*cold.exe, tc.args);
    for (const auto engine : kEngines) {
      const auto got = execsim::run_executable(*warm.exe, tc.args,
                                               minic::RunLimits{}, engine);
      EXPECT_EQ(minic::to_json(got).dump(), minic::to_json(ref).dump());
    }
  }

  // A different pipeline version cold-starts the object streams.
  TuCompileCache stale_tus;
  LinkCache stale_links;
  cache::Store stale(dir);
  EXPECT_FALSE(stale_tus.attach(stale, kVersion + 1));
  EXPECT_FALSE(stale_links.attach(stale, kVersion + 1));
  EXPECT_EQ(stale_links.size(), 0u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ObjCodec, FlushCompilesNothingAndTheInterpreterRunsNoChunk) {
  // Link payloads carry no bytecode: flushing a recorded link leaves its
  // executable's ChunkPack empty, a warm hit starts from an empty pack,
  // the tree-walker never fills it, and the VM compiles into it lazily.
  // A Kokkos implementation exercises lambda-body chunks; no app ships a
  // Kokkos repo directly, so the reference transpiler produces one from
  // the CUDA sources.
  const apps::AppSpec* app = apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  xlate::TranspileLog xlog;
  const vfs::Repo repo = xlate::transpile_repo(
      *app, apps::Model::Cuda, apps::Model::Kokkos, xlog);

  const std::string dir = temp_store_dir("obj_warm_lambda");
  constexpr std::uint64_t kVersion = 79;
  buildsim::BuildResult cold;
  {
    cache::Store store(dir);
    ASSERT_TRUE(store.open());
    TuCompileCache tus;
    LinkCache links;
    tus.attach(store, kVersion);
    links.attach(store, kVersion);
    cold = buildsim::build_repo(repo, "", &tus, std::nullopt, &links);
    ASSERT_TRUE(cold.ok);
    ASSERT_GT(links.flush(), 0u);
    tus.flush();
    // The recorded entry shares this pack: flush compiled nothing into it.
    EXPECT_EQ(cold.exe->chunks->size(), 0u);
    EXPECT_EQ(cold.exe->chunks->lambda_size(), 0u);
  }

  cache::Store store(dir);
  TuCompileCache tus;
  LinkCache links;
  ASSERT_TRUE(tus.attach(store, kVersion));
  ASSERT_TRUE(links.attach(store, kVersion));
  const auto warm = buildsim::build_repo(repo, "", &tus, std::nullopt,
                                         &links);
  ASSERT_TRUE(warm.ok);
  ASSERT_TRUE(warm.exe.has_value());
  EXPECT_EQ(links.persisted_hits(), 1u);
  const minic::ChunkPack& pack = *warm.exe->chunks;

  std::vector<std::string> refs;
  for (const auto& tc : app->tests) {
    refs.push_back(minic::to_json(execsim::run_executable(*cold.exe, tc.args))
                       .dump());
  }
  for (const auto engine : kEngines) {
    for (std::size_t i = 0; i < app->tests.size(); ++i) {
      const auto got = execsim::run_executable(
          *warm.exe, app->tests[i].args, minic::RunLimits{}, engine);
      EXPECT_EQ(minic::to_json(got).dump(), refs[i])
          << apps::model_key(apps::Model::Kokkos) << " engine "
          << minic::engine_key(engine);
    }
    if (engine == minic::EngineKind::Interp) {
      EXPECT_EQ(pack.size(), 0u);
      EXPECT_EQ(pack.lambda_size(), 0u);
    } else {
      // Kokkos apps launch lambdas by construction.
      EXPECT_GT(pack.size(), 0u);
      EXPECT_GT(pack.lambda_size(), 0u);
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ObjCodec, CorruptLinkJournalDegradesToAColdLink) {
  const std::string dir = temp_store_dir("obj_corrupt_lnk");
  constexpr std::uint64_t kVersion = 78;
  const apps::AppSpec* app = apps::all_apps().front();
  const vfs::Repo& repo = app->repos.at(app->available.front());
  {
    cache::Store store(dir);
    ASSERT_TRUE(store.open());
    TuCompileCache tus;
    LinkCache links;
    tus.attach(store, kVersion);
    links.attach(store, kVersion);
    ASSERT_TRUE(
        buildsim::build_repo(repo, "", &tus, std::nullopt, &links).ok);
    tus.flush();
    ASSERT_GT(links.flush(), 0u);
  }
  // Flip one byte in the middle of the lnk1 journal. Replay either drops
  // the record (CRC) or the payload fails its content hash at lookup —
  // both must degrade to a correct cold link, never a wrong executable.
  const std::string journal = dir + "/lnk1.journal";
  ASSERT_TRUE(std::filesystem::exists(journal));
  {
    std::fstream f(journal,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 32);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x41);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  cache::Store store(dir);
  TuCompileCache tus;
  LinkCache links;
  tus.attach(store, kVersion);
  links.attach(store, kVersion);
  const auto rebuilt =
      buildsim::build_repo(repo, "", &tus, std::nullopt, &links);
  EXPECT_TRUE(rebuilt.ok);
  ASSERT_TRUE(rebuilt.exe.has_value());
  for (const auto& tc : app->tests) {
    const auto run = execsim::run_executable(*rebuilt.exe, tc.args);
    EXPECT_FALSE(minic::to_json(run).dump().empty());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
