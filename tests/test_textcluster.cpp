// Tests for the text/embedding and clustering substrates (§6.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>

#include "cluster/dbscan.hpp"
#include "support/rng.hpp"
#include "text/tokens.hpp"
#include "text/word2vec.hpp"

namespace pt = pareval::text;
namespace pc = pareval::cluster;

TEST(Tokens, ApproxTokensScalesWithLength) {
  EXPECT_EQ(pt::approx_tokens(""), 0);
  EXPECT_EQ(pt::approx_tokens("int"), 1);
  EXPECT_EQ(pt::approx_tokens("x = y;"), 4);  // x, =, y, ;
  EXPECT_GT(pt::approx_tokens("cudaMemcpyHostToDevice"),
            pt::approx_tokens("int"));
  const std::string code = "for (int i = 0; i < n; i++) { a[i] = b[i]; }";
  EXPECT_GT(pt::approx_tokens(code), 15);
  EXPECT_LT(pt::approx_tokens(code), 40);
}

TEST(Tokens, WordTokensLowercasesAndSplits) {
  const auto words = pt::word_tokens("Error: use of UNDECLARED identifier");
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "error");
  EXPECT_EQ(words[2], "of");
  EXPECT_EQ(words[3], "undeclared");
}

TEST(Word2Vec, SimilarContextsYieldSimilarVectors) {
  // "paris"/"london" share contexts; "banana" does not.
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 60; ++i) {
    docs.push_back({"the", "city", "of", i % 2 ? "paris" : "london", "is",
                    "big"});
    docs.push_back({"eat", "a", "ripe", "banana", "now"});
  }
  pt::Word2Vec w2v;
  pt::Word2VecConfig cfg;
  cfg.epochs = 20;
  w2v.train(docs, cfg);
  EXPECT_GT(w2v.cosine("paris", "london"), w2v.cosine("paris", "banana"));
}

TEST(Word2Vec, DocumentEmbeddingIsMeanOfWords) {
  std::vector<std::vector<std::string>> docs = {{"aa", "bb"}, {"bb", "cc"}};
  pt::Word2Vec w2v;
  w2v.train(docs);
  const auto va = w2v.embed_word("aa");
  const auto vb = w2v.embed_word("bb");
  const auto doc = w2v.embed_document({"aa", "bb"});
  for (std::size_t k = 0; k < doc.size(); ++k) {
    EXPECT_NEAR(doc[k], (va[k] + vb[k]) / 2.0, 1e-12);
  }
}

TEST(Word2Vec, OovIsZeroVector) {
  pt::Word2Vec w2v;
  w2v.train({{"x", "y"}});
  for (const double v : w2v.embed_word("zzz")) EXPECT_EQ(v, 0.0);
}

TEST(Word2Vec, DeterministicForFixedSeed) {
  std::vector<std::vector<std::string>> docs = {
      {"a", "b", "c"}, {"b", "c", "d"}, {"c", "d", "a"}};
  pt::Word2Vec w1, w2;
  w1.train(docs);
  w2.train(docs);
  EXPECT_EQ(w1.embed_word("a"), w2.embed_word("a"));
}

TEST(Dbscan, SeparatesWellSpacedBlobs) {
  pareval::support::Rng rng(3);
  std::vector<std::vector<double>> pts;
  for (int blob = 0; blob < 3; ++blob) {
    for (int i = 0; i < 20; ++i) {
      pts.push_back({blob * 10.0 + rng.uniform(-0.2, 0.2),
                     blob * 10.0 + rng.uniform(-0.2, 0.2)});
    }
  }
  const auto labels = pc::dbscan(pts, {1.0, 3});
  EXPECT_EQ(pc::cluster_count(labels), 3);
  // All points in the same blob share a label.
  for (int blob = 0; blob < 3; ++blob) {
    for (int i = 1; i < 20; ++i) {
      EXPECT_EQ(labels[blob * 20], labels[blob * 20 + i]);
    }
  }
}

TEST(Dbscan, IsolatedPointsAreNoise) {
  std::vector<std::vector<double>> pts = {
      {0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},  // dense blob
      {50, 50},                                 // loner
  };
  const auto labels = pc::dbscan(pts, {0.5, 3});
  EXPECT_EQ(pc::cluster_count(labels), 1);
  EXPECT_EQ(labels[4], -1);
}

TEST(Dbscan, EpsControlsMerging) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({i * 1.0});
  // Chain of points 1 apart: big eps -> one cluster, tiny eps -> noise.
  EXPECT_EQ(pc::cluster_count(pc::dbscan(pts, {1.5, 3})), 1);
  EXPECT_EQ(pc::cluster_count(pc::dbscan(pts, {0.1, 3})), 0);
}

TEST(Dbscan, EmptyInput) {
  EXPECT_TRUE(pc::dbscan({}, {1.0, 3}).empty());
}

// ---------------------------------------------------------------------------
// Differential tests: the training kernel and the distinct-point DBSCAN
// against the straightforward versions they replaced, which stay here as
// oracles. Results must match bit for bit.

namespace {

double reference_sigmoid(double x) {
  if (x > 8) return 1.0;
  if (x < -8) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// One sample at a time, exactly as the original training loop ran.
/// Returns each vocabulary word's input embedding.
std::map<std::string, std::vector<double>> reference_word2vec(
    const std::vector<std::vector<std::string>>& docs,
    const pt::Word2VecConfig& config) {
  std::map<std::string, int> vocab;
  std::map<std::string, int> counts;
  for (const auto& doc : docs) {
    for (const auto& w : doc) counts[w]++;
  }
  for (const auto& [w, n] : counts) {
    if (n >= config.min_count) {
      vocab.emplace(w, static_cast<int>(vocab.size()));
    }
  }
  const std::size_t v = vocab.size();
  const std::size_t d = static_cast<std::size_t>(config.dim);
  pareval::support::Rng rng(config.seed);
  std::vector<double> in(v * d, 0.0), out(v * d, 0.0);
  for (auto& x : in) x = (rng.next_double() - 0.5) / config.dim;
  std::vector<int> unigram;
  for (const auto& [w, n] : counts) {
    const auto it = vocab.find(w);
    if (it == vocab.end()) continue;
    const int reps = std::max(1, static_cast<int>(std::pow(n, 0.75)));
    for (int r = 0; r < reps; ++r) unigram.push_back(it->second);
  }
  std::vector<std::vector<int>> indexed;
  for (const auto& doc : docs) {
    std::vector<int> ids;
    for (const auto& w : doc) {
      const auto it = vocab.find(w);
      if (it != vocab.end()) ids.push_back(it->second);
    }
    if (ids.size() > 1) indexed.push_back(std::move(ids));
  }
  std::vector<double> grad(d);
  for (int epoch = 0; epoch < config.epochs && !unigram.empty(); ++epoch) {
    const double lr = config.lr * (1.0 - static_cast<double>(epoch) /
                                             config.epochs) + 1e-4;
    for (const auto& ids : indexed) {
      for (std::size_t center = 0; center < ids.size(); ++center) {
        const std::size_t lo =
            center >= static_cast<std::size_t>(config.window)
                ? center - config.window
                : 0;
        const std::size_t hi =
            std::min(ids.size() - 1, center + config.window);
        for (std::size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          const std::size_t wi = static_cast<std::size_t>(ids[center]) * d;
          std::fill(grad.begin(), grad.end(), 0.0);
          for (int n = 0; n <= config.negatives; ++n) {
            std::size_t target;
            double label;
            if (n == 0) {
              target = static_cast<std::size_t>(ids[ctx]);
              label = 1.0;
            } else {
              target = static_cast<std::size_t>(
                  unigram[rng.next_below(unigram.size())]);
              if (target == static_cast<std::size_t>(ids[ctx])) continue;
              label = 0.0;
            }
            const std::size_t ti = target * d;
            double dot = 0.0;
            for (std::size_t k = 0; k < d; ++k) {
              dot += in[wi + k] * out[ti + k];
            }
            const double g = (reference_sigmoid(dot) - label) * lr;
            for (std::size_t k = 0; k < d; ++k) {
              grad[k] += g * out[ti + k];
              out[ti + k] -= g * in[wi + k];
            }
          }
          for (std::size_t k = 0; k < d; ++k) in[wi + k] -= grad[k];
        }
      }
    }
  }
  std::map<std::string, std::vector<double>> embeddings;
  for (const auto& [w, id] : vocab) {
    embeddings[w].assign(in.begin() + id * d, in.begin() + (id + 1) * d);
  }
  return embeddings;
}

void expect_same_embeddings(
    const std::vector<std::vector<std::string>>& docs,
    const pt::Word2VecConfig& cfg) {
  SCOPED_TRACE("dim " + std::to_string(cfg.dim) + ", negatives " +
               std::to_string(cfg.negatives) + ", window " +
               std::to_string(cfg.window));
  pt::Word2Vec w2v;
  w2v.train(docs, cfg);
  const auto expected = reference_word2vec(docs, cfg);
  ASSERT_EQ(w2v.vocabulary_size(), expected.size());
  for (const auto& [word, vec] : expected) {
    const auto got = w2v.embed_word(word);
    ASSERT_EQ(got.size(), vec.size());
    EXPECT_EQ(std::memcmp(got.data(), vec.data(),
                          vec.size() * sizeof(double)),
              0)
        << "embedding of '" << word << "' differs";
  }
}

/// Per-point DBSCAN, exactly as it ran before the distinct-point rewrite.
std::vector<int> reference_dbscan(
    const std::vector<std::vector<double>>& points,
    const pc::DbscanConfig& config) {
  const auto dist2 = [](const std::vector<double>& a,
                        const std::vector<double>& b) {
    double s = 0;
    for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
      const double d = a[k] - b[k];
      s += d * d;
    }
    return s;
  };
  const double eps2 = config.eps * config.eps;
  const auto neighbours = [&](std::size_t i) {
    std::vector<int> out;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (dist2(points[i], points[j]) <= eps2) {
        out.push_back(static_cast<int>(j));
      }
    }
    return out;
  };
  constexpr int kUnvisited = -2;
  std::vector<int> labels(points.size(), kUnvisited);
  int next_cluster = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (labels[i] != kUnvisited) continue;
    auto seeds = neighbours(i);
    if (static_cast<int>(seeds.size()) < config.min_pts) {
      labels[i] = -1;
      continue;
    }
    const int cluster = next_cluster++;
    labels[i] = cluster;
    std::deque<int> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      const int j = queue.front();
      queue.pop_front();
      if (labels[j] == -1) labels[j] = cluster;
      if (labels[j] != kUnvisited) continue;
      labels[j] = cluster;
      auto jn = neighbours(static_cast<std::size_t>(j));
      if (static_cast<int>(jn.size()) >= config.min_pts) {
        for (const int n : jn) queue.push_back(n);
      }
    }
  }
  for (auto& l : labels) {
    if (l == kUnvisited) l = -1;
  }
  return labels;
}

/// A corpus shaped like failure logs: a small vocabulary of frequent
/// words, repeated documents, and a few one-word documents.
std::vector<std::vector<std::string>> log_like_corpus() {
  pareval::support::Rng rng(11);
  const std::vector<std::string> words = {
      "error", "undeclared", "identifier", "make", "no", "rule", "to",
      "target", "kernel", "line", "expected", "flag", "link", "undefined",
      "reference", "omp", "device", "validation", "failed", "cuda"};
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::string> doc;
    const int len = 1 + static_cast<int>(rng.next_below(12));
    for (int w = 0; w < len; ++w) {
      // Skewed draw: low indices are much more frequent.
      const auto a = rng.next_below(words.size());
      const auto b = rng.next_below(words.size());
      doc.push_back(words[std::min(a, b)]);
    }
    docs.push_back(doc);
    if (i % 3 == 0) docs.push_back(doc);
  }
  return docs;
}

}  // namespace

TEST(Word2VecKernel, MatchesSequentialReference) {
  const auto docs = log_like_corpus();
  // 9 negatives give 10 samples per pair, more than one batch holds.
  for (const int dim : {1, 5, 12, 16}) {
    for (const int negatives : {0, 1, 4, 9}) {
      for (const int window : {1, 3}) {
        pt::Word2VecConfig cfg;
        cfg.dim = dim;
        cfg.negatives = negatives;
        cfg.window = window;
        cfg.epochs = 3;
        expect_same_embeddings(docs, cfg);
      }
    }
  }
}

TEST(Word2VecKernel, TinyVocabularyRepeatsNegatives) {
  // Three words: most pairs draw a repeated negative or the positive.
  std::vector<std::vector<std::string>> docs;
  for (int i = 0; i < 12; ++i) {
    docs.push_back({"a", "b", i % 2 ? "c" : "a", "b", "a"});
  }
  for (const int dim : {1, 5, 12, 16}) {
    for (const int negatives : {0, 1, 4, 9}) {
      pt::Word2VecConfig cfg;
      cfg.dim = dim;
      cfg.negatives = negatives;
      cfg.epochs = 4;
      expect_same_embeddings(docs, cfg);
    }
  }
}

TEST(Word2VecKernel, ClassifierShape) {
  // The §6.3 classifier's configuration on a larger log-like corpus.
  auto docs = log_like_corpus();
  const auto more = log_like_corpus();
  docs.insert(docs.end(), more.begin(), more.end());
  pt::Word2VecConfig cfg;
  cfg.dim = 12;
  cfg.epochs = 6;
  expect_same_embeddings(docs, cfg);
}

TEST(DbscanDistinct, MatchesPerPointReferenceOnDuplicatedGrids) {
  // Integer grid coordinates make distances land exactly on eps, and
  // drawing from a few distinct points gives heavy duplication. A few
  // coordinates are -0.0 or NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  pareval::support::Rng rng(5);
  for (int round = 0; round < 3000; ++round) {
    const std::size_t distinct = 1 + rng.next_below(12);
    const std::size_t dim = 1 + rng.next_below(3);
    std::vector<std::vector<double>> pool;
    for (std::size_t i = 0; i < distinct; ++i) {
      std::vector<double> p(dim);
      for (auto& x : p) {
        const auto v = rng.next_below(40);
        x = v == 0 ? nan : v == 1 ? -0.0 : static_cast<double>(v % 5);
      }
      pool.push_back(p);
    }
    std::vector<std::vector<double>> points;
    const std::size_t n = rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back(pool[rng.next_below(pool.size())]);
    }
    const pc::DbscanConfig cfg{static_cast<double>(rng.next_below(3)),
                               1 + static_cast<int>(rng.next_below(5))};
    ASSERT_EQ(pc::dbscan(points, cfg), reference_dbscan(points, cfg))
        << "round " << round;
  }
}

TEST(DbscanDistinct, BorderPointReachableFromTwoClusters) {
  // Two dense groups 2 apart with a border point midway: the first
  // cluster created claims it, whichever order the points come in.
  std::vector<std::vector<double>> points = {
      {0}, {0}, {0}, {1}, {2}, {2}, {2}};
  for (int rotation = 0; rotation < 7; ++rotation) {
    for (const int min_pts : {2, 3, 4}) {
      const pc::DbscanConfig cfg{1.0, min_pts};
      EXPECT_EQ(pc::dbscan(points, cfg), reference_dbscan(points, cfg))
          << "rotation " << rotation << ", min_pts " << min_pts;
    }
    std::rotate(points.begin(), points.begin() + 1, points.end());
  }
}

TEST(DbscanDistinct, NanAndSignedZeroCoordinates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> points = {
      {0.0, 0.0}, {-0.0, 0.0}, {0.0, -0.0}, {nan, 0.0}, {nan, 0.0},
      {0.0, 0.0}, {inf, 1.0},  {inf, 1.0},  {-0.0, 0.0}, {1.0, nan},
      {0.5, 0.0}, {3.0, 3.0}};
  for (const double eps : {0.0, 0.5, 1.0, inf}) {
    for (int min_pts = 0; min_pts <= 5; ++min_pts) {
      const pc::DbscanConfig cfg{eps, min_pts};
      EXPECT_EQ(pc::dbscan(points, cfg), reference_dbscan(points, cfg))
          << "eps " << eps << ", min_pts " << min_pts;
    }
  }
}

TEST(DbscanDistinct, AllDistinctAndEmptyInput) {
  pareval::support::Rng rng(9);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.uniform(0, 4), rng.uniform(0, 4)});
  }
  for (int min_pts = 1; min_pts <= 5; ++min_pts) {
    const pc::DbscanConfig cfg{0.3, min_pts};
    EXPECT_EQ(pc::dbscan(points, cfg), reference_dbscan(points, cfg));
  }
  EXPECT_EQ(pc::dbscan({}, {0.3, 2}), reference_dbscan({}, {0.3, 2}));
}
