#include <gtest/gtest.h>

#include <cstdint>

#include "buildsim/tucache.hpp"
#include "support/rng.hpp"
#include "vfs/repo.hpp"

namespace pv = pareval::vfs;
namespace ps = pareval::support;

TEST(Paths, Normalize) {
  EXPECT_EQ(pv::normalize_path("./src/../src/main.cpp"), "src/main.cpp");
  EXPECT_EQ(pv::normalize_path("/a/b"), "a/b");
  EXPECT_EQ(pv::normalize_path("a//b"), "a/b");
  EXPECT_THROW(pv::normalize_path("../x"), std::invalid_argument);
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
