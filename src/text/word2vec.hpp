#pragma once
// word2vec (Mikolov et al., skip-gram with negative sampling), sized for
// embedding build/run logs (paper §6.3): "We first convert the build and
// run logs ... to vector embeddings using the word2vec model. This yields
// for each translation a single vector that captures the semantics of its
// output logs."

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pareval::text {

struct Word2VecConfig {
  int dim = 16;
  int window = 3;
  int negatives = 4;
  int epochs = 12;
  double lr = 0.05;
  std::uint64_t seed = 2024;
  int min_count = 1;
};

class Word2Vec {
 public:
  /// Train on a corpus of documents (each a token sequence).
  void train(const std::vector<std::vector<std::string>>& docs,
             const Word2VecConfig& config = {});

  /// Embedding of one word (zero vector when OOV).
  std::vector<double> embed_word(const std::string& word) const;
  /// Mean of word embeddings: the per-document vector used for clustering.
  std::vector<double> embed_document(
      const std::vector<std::string>& words) const;

  double cosine(const std::string& a, const std::string& b) const;

  int dim() const { return config_.dim; }
  std::size_t vocabulary_size() const { return vocab_.size(); }

 private:
  Word2VecConfig config_;
  std::map<std::string, int> vocab_;
  std::vector<double> in_;   // vocab x dim
  std::vector<double> out_;  // vocab x dim
  std::vector<int> unigram_; // negative-sampling table
};

}  // namespace pareval::text
