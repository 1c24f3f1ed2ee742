#include "text/word2vec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "support/rng.hpp"

namespace pareval::text {

namespace {

double sigmoid(double x) {
  if (x > 8) return 1.0;
  if (x < -8) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Most samples one batch computes dot products for at once.
constexpr std::size_t kLanes = 8;

/// Two doubles updated lane by lane (a GCC/Clang vector extension): each
/// lane rounds exactly like the scalar expression, so this halves the
/// update's loads and stores without changing a bit.
using Pair2 = double __attribute__((vector_size(2 * sizeof(double))));

Pair2 load2(const double* p) {
  Pair2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, Pair2 v) { std::memcpy(p, &v, sizeof v); }

// Skip-gram SGD, one context pair at a time.
//
// The result is bit-identical to updating one sample after another: a
// sample's dot product reads the centre's `in` row, which no sample of the
// pair writes, and its target's `out` row, which only a sample with the
// same target writes. So a run of samples with pairwise distinct targets
// may compute all its dot products first, as independent chains that each
// still sum k = 0..dim-1 in order, and then apply the `grad` and `out`
// updates, each element still accumulating in sample order. A repeated
// target starts a new batch, so it sees the earlier update.

/// kM samples whose `out` rows `rows` are pairwise distinct; the first has
/// label `first_label`, the others 0. `w` is the centre's `in` row and
/// `grad` its pending update.
template <std::size_t kM>
void sgd_batch(std::size_t d, const double* __restrict__ w,
               double* __restrict__ grad, double* const* rows,
               double first_label, double lr) {
  // Unrolling over the samples keeps the kM chains in registers.
  double dot[kM] = {};
  for (std::size_t k = 0; k < d; ++k) {
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kM; ++s) dot[s] += w[k] * rows[s][k];
  }
  double g[kM];
#pragma GCC unroll 8
  for (std::size_t s = 0; s < kM; ++s) {
    g[s] = (sigmoid(dot[s]) - (s == 0 ? first_label : 0.0)) * lr;
  }
  std::size_t k = 0;
  for (; k + 2 <= d; k += 2) {
    const Pair2 wk = load2(w + k);
    Pair2 gk = load2(grad + k);
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kM; ++s) {
      Pair2 r = load2(rows[s] + k);
      gk += g[s] * r;
      r -= g[s] * wk;
      store2(rows[s] + k, r);
    }
    store2(grad + k, gk);
  }
  for (; k < d; ++k) {
    for (std::size_t s = 0; s < kM; ++s) {
      grad[k] += g[s] * rows[s][k];
      rows[s][k] -= g[s] * w[k];
    }
  }
}

template <std::size_t... kIs>
void sgd_dispatch(std::size_t m, std::size_t d, const double* w,
                  double* grad, double* const* rows, double first_label,
                  double lr, std::index_sequence<kIs...>) {
  ((m == kIs + 1 ? sgd_batch<kIs + 1>(d, w, grad, rows, first_label, lr)
                 : void()),
   ...);
}

/// One context pair: `targets[0..count)` are the positive sample and the
/// negatives that survived the positive skip, in draw order. `grad` is
/// scratch of the embedding width.
void sgd_pair(double* in_row, double* out, std::size_t d,
              const std::size_t* targets, std::size_t count, double lr,
              double* grad) {
  std::fill_n(grad, d, 0.0);
  double* rows[kLanes];
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    rows[i - begin] = out + targets[i] * d;
    const std::size_t next = i + 1;
    if (next < count && next - begin < kLanes &&
        std::find(targets + begin, targets + next, targets[next]) ==
            targets + next) {
      continue;
    }
    sgd_dispatch(next - begin, d, in_row, grad, rows, begin == 0 ? 1.0 : 0.0,
                 lr, std::make_index_sequence<kLanes>{});
    begin = next;
  }
  for (std::size_t k = 0; k < d; ++k) in_row[k] -= grad[k];
}

}  // namespace

void Word2Vec::train(const std::vector<std::vector<std::string>>& docs,
                     const Word2VecConfig& config) {
  config_ = config;
  vocab_.clear();

  // Vocabulary with counts.
  std::map<std::string, int> counts;
  for (const auto& doc : docs) {
    for (const auto& w : doc) counts[w]++;
  }
  for (const auto& [w, n] : counts) {
    if (n >= config.min_count) {
      vocab_.emplace(w, static_cast<int>(vocab_.size()));
    }
  }
  const std::size_t v = vocab_.size();
  const std::size_t d = static_cast<std::size_t>(config.dim);
  support::Rng rng(config.seed);
  in_.assign(v * d, 0.0);
  out_.assign(v * d, 0.0);
  for (auto& x : in_) x = (rng.next_double() - 0.5) / config.dim;

  // Unigram^(3/4) table for negative sampling.
  unigram_.clear();
  for (const auto& [w, n] : counts) {
    const auto it = vocab_.find(w);
    if (it == vocab_.end()) continue;
    const int reps = std::max(1, static_cast<int>(std::pow(n, 0.75)));
    for (int r = 0; r < reps; ++r) unigram_.push_back(it->second);
  }
  if (unigram_.empty()) return;

  // Index the corpus once, into one buffer: document i is
  // ids[starts[i] .. starts[i + 1]).
  std::vector<int> ids;
  std::vector<std::size_t> starts = {0};
  for (const auto& doc : docs) {
    const std::size_t start = ids.size();
    for (const auto& w : doc) {
      const auto it = vocab_.find(w);
      if (it != vocab_.end()) ids.push_back(it->second);
    }
    if (ids.size() - start > 1) {
      starts.push_back(ids.size());
    } else {
      ids.resize(start);
    }
  }

  std::vector<double> grad(d);
  std::vector<std::size_t> targets(
      config.negatives >= 0 ? static_cast<std::size_t>(config.negatives) + 1
                            : 0);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const double lr = config.lr * (1.0 - static_cast<double>(epoch) /
                                             config.epochs) + 1e-4;
    for (std::size_t doc = 0; doc + 1 < starts.size(); ++doc) {
      const int* doc_ids = ids.data() + starts[doc];
      const std::size_t size = starts[doc + 1] - starts[doc];
      for (std::size_t center = 0; center < size; ++center) {
        const std::size_t lo =
            center >= static_cast<std::size_t>(config.window)
                ? center - config.window
                : 0;
        const std::size_t hi = std::min(size - 1, center + config.window);
        double* in_row =
            in_.data() + static_cast<std::size_t>(doc_ids[center]) * d;
        for (std::size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          // Draw every negative before any update; the draw order and
          // the skip of a negative equal to the positive are the
          // sequential loop's.
          const auto positive = static_cast<std::size_t>(doc_ids[ctx]);
          std::size_t count = 0;
          if (config.negatives >= 0) targets[count++] = positive;
          for (int n = 1; n <= config.negatives; ++n) {
            const auto target = static_cast<std::size_t>(
                unigram_[rng.next_below(unigram_.size())]);
            if (target != positive) targets[count++] = target;
          }
          sgd_pair(in_row, out_.data(), d, targets.data(), count, lr,
                   grad.data());
        }
      }
    }
  }
}

std::vector<double> Word2Vec::embed_word(const std::string& word) const {
  std::vector<double> out(static_cast<std::size_t>(config_.dim), 0.0);
  const auto it = vocab_.find(word);
  if (it == vocab_.end()) return out;
  const std::size_t base =
      static_cast<std::size_t>(it->second) * config_.dim;
  for (int k = 0; k < config_.dim; ++k) out[k] = in_[base + k];
  return out;
}

std::vector<double> Word2Vec::embed_document(
    const std::vector<std::string>& words) const {
  std::vector<double> out(static_cast<std::size_t>(config_.dim), 0.0);
  int hits = 0;
  for (const auto& w : words) {
    const auto it = vocab_.find(w);
    if (it == vocab_.end()) continue;
    const std::size_t base =
        static_cast<std::size_t>(it->second) * config_.dim;
    for (int k = 0; k < config_.dim; ++k) out[k] += in_[base + k];
    ++hits;
  }
  if (hits > 0) {
    for (auto& x : out) x /= hits;
  }
  return out;
}

double Word2Vec::cosine(const std::string& a, const std::string& b) const {
  const auto va = embed_word(a);
  const auto vb = embed_word(b);
  double dot = 0, na = 0, nb = 0;
  for (int k = 0; k < config_.dim; ++k) {
    dot += va[k] * vb[k];
    na += va[k] * va[k];
    nb += vb[k] * vb[k];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace pareval::text
