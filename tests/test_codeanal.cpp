#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "codeanal/functions.hpp"
#include "codeanal/includes.hpp"
#include "codeanal/lexer.hpp"
#include "codeanal/metrics.hpp"
#include "support/rng.hpp"
#include "translate/transpile.hpp"

namespace ca = pareval::codeanal;
namespace pa = pareval::apps;
namespace ps = pareval::support;

TEST(Lexer, BasicTokens) {
  const auto r = ca::lex("int x = 42 + y;");
  ASSERT_TRUE(r.errors.empty());
  ASSERT_GE(r.tokens.size(), 8u);
  EXPECT_TRUE(r.tokens[0].is_ident("int"));
  EXPECT_TRUE(r.tokens[1].is_ident("x"));
  EXPECT_TRUE(r.tokens[2].is_punct("="));
  EXPECT_EQ(r.tokens[3].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens.back().kind, ca::TokKind::EndOfFile);
}

TEST(Lexer, FloatForms) {
  const auto r = ca::lex("1.5 3e-2 2.0f 7u 0x1F .25");
  EXPECT_EQ(r.tokens[0].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[1].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[2].kind, ca::TokKind::FloatLit);
  EXPECT_EQ(r.tokens[3].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens[4].kind, ca::TokKind::IntLit);
  EXPECT_EQ(r.tokens[5].kind, ca::TokKind::FloatLit);
}

TEST(Lexer, CudaLaunchTokens) {
  const auto r = ca::lex("kernel<<<grid, block>>>(a, b);");
  bool open = false, close = false;
  for (const auto& t : r.tokens) {
    if (t.is_punct("<<<")) open = true;
    if (t.is_punct(">>>")) close = true;
  }
  EXPECT_TRUE(open);
  EXPECT_TRUE(close);
}

TEST(Lexer, StringEscapes) {
  const auto r = ca::lex(R"(printf("a\n\"b\"");)");
  ASSERT_EQ(r.tokens[2].kind, ca::TokKind::StringLit);
  EXPECT_EQ(r.tokens[2].text, "a\n\"b\"");
}

TEST(Lexer, PpDirectiveCapturesWholeLine) {
  const auto r = ca::lex("#include <stdio.h>\nint x;");
  ASSERT_EQ(r.tokens[0].kind, ca::TokKind::PpDirective);
  EXPECT_EQ(r.tokens[0].text, "#include <stdio.h>");
  EXPECT_TRUE(r.tokens[1].is_ident("int"));
}

TEST(Lexer, PragmaWithContinuation) {
  const auto r = ca::lex("#pragma omp target \\\n  map(to: x)\nint y;");
  ASSERT_EQ(r.tokens[0].kind, ca::TokKind::PpDirective);
  EXPECT_NE(r.tokens[0].text.find("map(to: x)"), std::string::npos);
}

TEST(Lexer, CommentsSkippedLinesTracked) {
  const auto r = ca::lex("// c1\n/* c2\nc3 */ int x;");
  EXPECT_TRUE(r.tokens[0].is_ident("int"));
  EXPECT_EQ(r.tokens[0].line, 3);
}

TEST(Lexer, HashMidLineIsNotDirective) {
  const auto r = ca::lex("int x; #bad");
  // '#' not at line start: lexed as error (no '#' operator) not directive.
  EXPECT_FALSE(r.errors.empty());
}

TEST(Lexer, UnterminatedString) {
  const auto r = ca::lex("char* s = \"abc;\n");
  EXPECT_FALSE(r.errors.empty());
}

TEST(Lexer, StripComments) {
  EXPECT_EQ(ca::strip_comments("a /* x */ b // y\nc"), "a  b \nc");
  // Comment markers inside strings are preserved.
  EXPECT_EQ(ca::strip_comments("\"//not\""), "\"//not\"");
}

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return ps::SplitMix64(h ^ v).next();
}

/// Fold every token's kind, text, line and column, and every error's
/// message and line, of one lex into `h`.
std::uint64_t fold_lex(std::uint64_t h, const std::string& src) {
  const auto r = ca::lex(src);
  h = fold(h, r.tokens.size());
  for (const auto& t : r.tokens) {
    h = fold(h, static_cast<std::uint64_t>(t.kind));
    h = fold(h, ps::stable_hash(t.text));
    h = fold(h, static_cast<std::uint64_t>(t.line));
    h = fold(h, static_cast<std::uint64_t>(t.col));
  }
  h = fold(h, r.errors.size());
  for (const auto& e : r.errors) {
    h = fold(h, ps::stable_hash(e.message));
    h = fold(h, static_cast<std::uint64_t>(e.line));
  }
  return h;
}

/// Every file of every app's shipped implementations.
std::vector<std::string> app_sources() {
  std::vector<std::string> out;
  for (const pa::AppSpec* app : pa::all_apps()) {
    for (const auto& [model, repo] : app->repos) {
      for (const auto& f : repo.files()) out.push_back(f.content);
    }
  }
  return out;
}

/// `src` with 1-4 seeded edits: spliced snippets that stress the lexer's
/// edge cases (continuations, unterminated comments and literals,
/// non-ASCII and NUL bytes), random byte overwrites, and truncation.
std::string mutate(std::string src, ps::Rng& rng) {
  static const std::vector<std::string> kSplices = {
      "\\\n", "\\", "\\\r\n", "/*", "*/", "//", "\"", "'", "\"a\\", "'\\",
      "#", "\n#", "\n  #define X \\\n 1", "##", "\x80", "\xff",
      "\xc3\xa9", std::string(1, '\0'), "0x", ".5e+", "1e", "1.f",
      "<<<", ">>=", "->*", "...", "\r", "\t", "\n", "@", "`"};
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.next_below(src.size() + 1);
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6) {
      src.insert(at, kSplices[rng.next_below(kSplices.size())]);
    } else if (kind < 9) {
      if (at < src.size()) src[at] = static_cast<char>(rng.next_below(256));
    } else {
      src.resize(at);
    }
  }
  return src;
}

}  // namespace

// Pins the lexer's exact output (every token and every error) over the
// app sources, their reference translations, and seeded mutations of the
// sources.
TEST(Lexer, GoldenDigestOverAppsTranslationsAndMutations) {
  const std::vector<std::string> sources = app_sources();
  std::uint64_t h = 0;
  for (const std::string& src : sources) h = fold_lex(h, src);
  EXPECT_EQ(h, 0x68c9f1ba0689172dULL) << std::hex << h;

  h = 0;
  const pa::Model kPairs[][2] = {
      {pa::Model::Cuda, pa::Model::OmpOffload},
      {pa::Model::Cuda, pa::Model::Kokkos},
      {pa::Model::OmpThreads, pa::Model::OmpOffload}};
  for (const pa::AppSpec* app : pa::all_apps()) {
    for (const auto& pair : kPairs) {
      if (app->repos.count(pair[0]) == 0) continue;
      pareval::xlate::TranspileLog log;
      const auto repo =
          pareval::xlate::transpile_repo(*app, pair[0], pair[1], log);
      for (const auto& f : repo.files()) h = fold_lex(h, f.content);
    }
  }
  EXPECT_EQ(h, 0xfafff6020f6b4fc5ULL) << std::hex << h;

  h = 0;
  ps::Rng rng(20251019);
  for (const std::string& src : sources) {
    for (int m = 0; m < 24; ++m) h = fold_lex(h, mutate(src, rng));
  }
  EXPECT_EQ(h, 0xaffcac691b6b3c9dULL) << std::hex << h;
}

TEST(Metrics, SlocCountsNonBlankNonComment) {
  const char* src = R"(
// comment only
int main() {
  /* block
     comment */
  return 0;
}

)";
  EXPECT_EQ(ca::sloc(src), 3);  // "int main() {", "return 0;", "}"
}

TEST(Metrics, CyclomaticStraightLineIsOne) {
  const auto fns = ca::function_complexity("int f() { return 1; }");
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "f");
  EXPECT_EQ(fns[0].complexity, 1);
}

TEST(Metrics, CyclomaticCountsBranchesAndLogicalOps) {
  const char* src = R"(
int f(int x) {
  if (x > 0 && x < 10) { return 1; }
  for (int i = 0; i < x; i++) {
    while (x > 2) { x--; }
  }
  return x > 5 ? 1 : 0;
}
)";
  const auto fns = ca::function_complexity(src);
  ASSERT_EQ(fns.size(), 1u);
  // 1 + if + && + for + while + ternary = 6
  EXPECT_EQ(fns[0].complexity, 6);
}

TEST(Metrics, MultipleFunctions) {
  const char* src = R"(
int a() { return 0; }
int b(int x) { if (x) return 1; return 0; }
)";
  const auto fns = ca::function_complexity(src);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "a");
  EXPECT_EQ(fns[1].name, "b");
  EXPECT_EQ(ca::file_complexity(src), 3);
}

TEST(Metrics, RepoMetricsExcludesDocs) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "int main() { return 0; }\n");
  repo.write("README.md", "docs\nmore docs\n");
  repo.write("Makefile", "all:\n\techo hi\n");
  const auto m = ca::repo_metrics(repo);
  EXPECT_EQ(m.files, 2);  // main.cpp + Makefile
  EXPECT_EQ(m.sloc, 3);   // 1 (cpp) + 2 (make)
}

TEST(Functions, FindFunctionsSkipsStructsAndProtos) {
  const char* src = R"(
struct Point { int x; int y; };
int declared_only(int a);
int real_fn(int a) { return a + 1; }
)";
  const auto lexed = ca::lex(src);
  const auto fns = ca::find_functions(lexed.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "real_fn");
}

TEST(Functions, CudaKernelDetected) {
  const char* src =
      "__global__ void k(int* p, size_t n) { if (n) p[0] = 1; }";
  const auto lexed = ca::lex(src);
  const auto fns = ca::find_functions(lexed.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "k");
}

TEST(Functions, ChunkerKeepsSmallFileWhole) {
  const char* src = "int a() { return 0; }\nint b() { return 1; }\n";
  const auto chunks = ca::split_into_chunks(src, 4096);
  ASSERT_EQ(chunks.size(), 1u);
}

TEST(Functions, ChunkerSplitsAtFunctionBoundaries) {
  std::string src;
  for (int i = 0; i < 6; ++i) {
    src += "int fn" + std::to_string(i) +
           "(int x) { int y = x * 2; return y + " + std::to_string(i) +
           "; }\n";
  }
  const auto chunks = ca::split_into_chunks(src, 120);
  EXPECT_GT(chunks.size(), 1u);
  std::string merged;
  for (const auto& c : chunks) merged += c.text;
  EXPECT_EQ(merged, src);  // lossless split
}

TEST(Includes, ScanFindsQuotedAndAngled) {
  const char* src =
      "#include <stdio.h>\n#include \"kernel.h\"\nint main() {}\n";
  const auto incs = ca::scan_includes(src);
  ASSERT_EQ(incs.size(), 2u);
  EXPECT_TRUE(incs[0].angled);
  EXPECT_EQ(incs[0].target, "stdio.h");
  EXPECT_FALSE(incs[1].angled);
  EXPECT_EQ(incs[1].target, "kernel.h");
}

TEST(Includes, GraphResolvesSiblingAndRoot) {
  pareval::vfs::Repo repo;
  repo.write("src/main.cpp", "#include \"kernel.h\"\n");
  repo.write("src/kernel.h", "int k();\n");
  repo.write("other.cpp", "#include \"src/kernel.h\"\n");
  const auto g = ca::build_include_graph(repo);
  ASSERT_EQ(g.edges.at("src/main.cpp").size(), 1u);
  EXPECT_EQ(g.edges.at("src/main.cpp")[0], "src/kernel.h");
  EXPECT_EQ(g.edges.at("other.cpp")[0], "src/kernel.h");
  EXPECT_TRUE(g.unresolved.empty());
}

TEST(Includes, UnresolvedRecorded) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "#include \"missing.h\"\n");
  const auto g = ca::build_include_graph(repo);
  ASSERT_EQ(g.unresolved.at("main.cpp").size(), 1u);
}

TEST(Includes, TranslationOrderDependenciesFirst) {
  pareval::vfs::Repo repo;
  repo.write("main.cpp", "#include \"a.h\"\n#include \"b.h\"\n");
  repo.write("a.h", "#include \"b.h\"\n");
  repo.write("b.h", "int b();\n");
  repo.write("Makefile", "all:\n");
  const auto order = ca::translation_order(repo);
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](const std::string& p) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == p) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos("b.h"), pos("a.h"));
  EXPECT_LT(pos("a.h"), pos("main.cpp"));
  EXPECT_EQ(order.back(), "Makefile");  // non-source last
}
