#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "buildsim/tucache.hpp"
#include "eval/harness.hpp"
#include "support/par.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vfs/repo.hpp"

namespace pv = pareval::vfs;
namespace ps = pareval::support;

TEST(Paths, Normalize) {
  EXPECT_EQ(pv::normalize_path("./src/../src/main.cpp"), "src/main.cpp");
  EXPECT_EQ(pv::normalize_path("/a/b"), "a/b");
  EXPECT_EQ(pv::normalize_path("a//b"), "a/b");
  EXPECT_THROW(pv::normalize_path("../x"), std::invalid_argument);
}

TEST(Paths, NormalFastPathMatchesSplitJoin) {
  // The split/join rule normalize_path applies to a path that is not
  // already normal.
  auto split_join = [](std::string_view path) {
    std::vector<std::string> out;
    for (const auto& part : ps::split(path, '/')) {
      if (part.empty() || part == ".") continue;
      if (part == "..") {
        out.pop_back();
      } else {
        out.push_back(part);
      }
    }
    return ps::join(out, "/");
  };
  for (const char* path :
       {"", "a/", "a//b", "/a", "./a", "a/./b", "a/..", "...", "a/.../b",
        "..a/b..", ".a/a.", "src/main.cpp", "a"}) {
    EXPECT_EQ(pv::normalize_path(path), split_join(path)) << path;
  }
  EXPECT_THROW(pv::normalize_path("../x"), std::invalid_argument);
  EXPECT_THROW(pv::normalize_path("a/../.."), std::invalid_argument);
}

TEST(Paths, Components) {
  EXPECT_EQ(pv::dirname("src/a.cpp"), "src");
  EXPECT_EQ(pv::dirname("a.cpp"), "");
  EXPECT_EQ(pv::basename("src/a.cpp"), "a.cpp");
  EXPECT_EQ(pv::extension("src/a.cpp"), ".cpp");
  EXPECT_EQ(pv::extension("Makefile"), "");
  EXPECT_EQ(pv::extension(".gitignore"), "");
}

TEST(Paths, Join) {
  EXPECT_EQ(pv::join_path("src", "main.cpp"), "src/main.cpp");
  EXPECT_EQ(pv::join_path("", "main.cpp"), "main.cpp");
  EXPECT_EQ(pv::join_path("src/sub", "../main.cpp"), "src/main.cpp");
}

TEST(Repo, WriteReadRemove) {
  pv::Repo r;
  r.write("src/main.cpp", "int main() {}");
  EXPECT_TRUE(r.exists("src/main.cpp"));
  EXPECT_TRUE(r.exists("./src/main.cpp"));
  EXPECT_EQ(*r.read("src/main.cpp"), "int main() {}");
  EXPECT_FALSE(r.read("nope").has_value());
  EXPECT_THROW(r.at("nope"), std::out_of_range);
  EXPECT_TRUE(r.remove("src/main.cpp"));
  EXPECT_FALSE(r.remove("src/main.cpp"));
}

TEST(Repo, PathsSorted) {
  pv::Repo r;
  r.write("b.cpp", "");
  r.write("a.cpp", "");
  const auto p = r.paths();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], "a.cpp");
  EXPECT_EQ(p[1], "b.cpp");
}

TEST(Repo, TreeMatchesPaperFormat) {
  // The paper's Listing 1 shows:
  //   |-- Makefile
  //   |-- README.md
  //   +-- src/
  //       +-- main.cpp
  pv::Repo r;
  r.write("Makefile", "");
  r.write("README.md", "");
  r.write("src/main.cpp", "");
  const std::string tree = r.render_tree();
  EXPECT_EQ(tree,
            "|-- Makefile\n"
            "|-- README.md\n"
            "+-- src/\n"
            "    +-- main.cpp\n");
}

TEST(Repo, EqualityIsContentBased) {
  pv::Repo a, b;
  a.write("x", "1");
  b.write("x", "1");
  EXPECT_EQ(a, b);
  b.write("x", "2");
  EXPECT_NE(a, b);
}

namespace {

/// repo_content_hash recomputed from the file bytes alone.
std::uint64_t content_hash_from_scratch(const pv::Repo& r) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto& f : r.files()) {
    h = ps::SplitMix64(h ^ ps::stable_hash(f.path)).next();
    h = ps::SplitMix64(h ^ ps::stable_hash(f.content)).next();
  }
  return h;
}

}  // namespace

// The repo stores each file's hashes at write(); every mutation and copy
// must keep repo_content_hash equal to a fold over the bytes.
TEST(Repo, StoredHashesMatchAFoldFromScratch) {
  auto expect_exact = [](const pv::Repo& repo) {
    EXPECT_EQ(pareval::buildsim::repo_content_hash(repo),
              content_hash_from_scratch(repo));
  };
  pv::Repo r;
  expect_exact(r);
  r.write("src/main.cpp", "int main() {}");
  r.write("src/util.h", "#pragma once\n");
  expect_exact(r);
  r.write("src/main.cpp", "int main() { return 1; }");  // overwrite
  expect_exact(r);
  ASSERT_TRUE(r.remove("src/util.h"));
  expect_exact(r);
  pv::Repo copy = r;
  copy.write("b.cpp", "x");
  expect_exact(copy);
  expect_exact(r);
  r = copy;
  expect_exact(r);
  r.write("./a//b.cpp", "y");  // stored and hashed as "a/b.cpp"
  ASSERT_TRUE(r.exists("a/b.cpp"));
  expect_exact(r);
  expect_exact(pv::Repo(r.files()));
}

TEST(Repo, ContentHashIsTheStoredStableHash) {
  pv::Repo r;
  r.write("./src//k.cu", "__global__ void k() {}");
  EXPECT_EQ(r.content_hash("src/k.cu"),
            ps::stable_hash(std::string("__global__ void k() {}")));
  EXPECT_EQ(r.content_hash("src/./k.cu"), r.content_hash("src/k.cu"));
  EXPECT_FALSE(r.content_hash("src/absent.cu").has_value());
  r.write("src/k.cu", "");
  EXPECT_EQ(r.content_hash("src/k.cu"), ps::stable_hash(std::string()));
}

TEST(Repo, CopySharesBytesButWritesStayLocal) {
  const std::string original(4096, 'x');
  pv::Repo r;
  r.write("src/a.cpp", original);
  pv::Repo copy = r;
  // Same bytes, not a copy of them.
  EXPECT_EQ(&copy.at("src/a.cpp"), &r.at("src/a.cpp"));

  copy.write("src/a.cpp", "int a;");
  copy.write("src/b.cpp", "int b;");
  EXPECT_EQ(r.at("src/a.cpp"), original);
  EXPECT_EQ(r.content_hash("src/a.cpp"), ps::stable_hash(original));
  EXPECT_FALSE(r.exists("src/b.cpp"));
  EXPECT_EQ(copy.at("src/a.cpp"), "int a;");
  EXPECT_EQ(copy.content_hash("src/a.cpp"),
            ps::stable_hash(std::string("int a;")));
  EXPECT_NE(r, copy);
}

TEST(Repo, GroundTruthOverlayEqualsWriteByWrite) {
  // with_ground_truth_build overlays the ground-truth files with their
  // stored hashes; the result must be the repo that removing the build
  // files and writing each ground-truth file in turn gives.
  int compared = 0;
  for (const pareval::apps::AppSpec* app : pareval::apps::all_apps()) {
    for (const auto& [from, repo] : app->repos) {
      for (const auto& [target, truth] : app->ground_truth_builds) {
        pv::Repo written = repo;
        written.remove("Makefile");
        written.remove("CMakeLists.txt");
        for (const auto& f : truth.files()) written.write(f.path, f.content);

        const pv::Repo overlaid =
            pareval::eval::with_ground_truth_build(*app, repo, target);
        EXPECT_EQ(overlaid, written) << app->name;
        EXPECT_EQ(overlaid.paths(), written.paths());
        for (const auto& path : written.paths()) {
          EXPECT_EQ(overlaid.content_hash(path), written.content_hash(path))
              << app->name << " " << path;
        }
        EXPECT_EQ(pareval::buildsim::repo_content_hash(overlaid),
                  pareval::buildsim::repo_content_hash(written));
        EXPECT_EQ(pareval::buildsim::repo_content_hash(overlaid),
                  content_hash_from_scratch(overlaid));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(Repo, OverwriteKeepsPathHash) {
  pv::Repo r;
  r.write("src/k.cu", "a");
  r.write("./src/k.cu", "b");
  EXPECT_EQ(r.file_count(), 1u);
  EXPECT_EQ(pareval::buildsim::repo_content_hash(r),
            content_hash_from_scratch(r));
}

TEST(Repo, EveryPoolWorkerCopiesAndMutatesOneSharedRepo) {
  // File contents are shared across copies, so copies made and edited on
  // different threads must neither race nor see each other's writes.
  pv::Repo shared;
  for (int f = 0; f < 8; ++f) {
    shared.write("src/f" + std::to_string(f) + ".cpp",
                 std::string(512, static_cast<char>('a' + f)));
  }
  const pv::Repo before = shared;
  const std::uint64_t before_hash = pareval::buildsim::repo_content_hash(shared);
  std::atomic<int> bad{0};
  ps::parallel_for(
      0, 256,
      [&](std::size_t i) {
        pv::Repo copy = shared;
        const std::string mine = "unit " + std::to_string(i);
        copy.write("src/f" + std::to_string(i % 8) + ".cpp", mine);
        copy.write("unit.txt", mine);
        pv::Repo again = copy;
        again.remove("unit.txt");
        if (copy.at("src/f" + std::to_string(i % 8) + ".cpp") != mine ||
            again.exists("unit.txt") ||
            pareval::buildsim::repo_content_hash(copy) ==
                before_hash ||
            shared.at("src/f0.cpp") != std::string(512, 'a')) {
          bad.fetch_add(1);
        }
      },
      ps::ThreadPool::global().worker_count() + 1);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(shared, before);
  EXPECT_EQ(pareval::buildsim::repo_content_hash(shared), before_hash);
}
