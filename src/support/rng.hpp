#pragma once
// Deterministic pseudo-random number generation for the simulation harness.
//
// Everything in the harness that is stochastic (defect injection, sample
// generation, word2vec negative sampling) draws from these generators so that
// every experiment is reproducible from a single 64-bit seed.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pareval::support {

/// SplitMix64: used to seed larger-state generators and for cheap hashing.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the harness's main generator. Fast, high quality, and
/// trivially seedable from SplitMix64 per the reference implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  /// Uniform 64-bit integer.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Integer in [0, bound) as a plain `next_u64() % bound`. bound must be
  /// > 0. Unless bound divides 2^64 the result is slightly biased toward
  /// small values (by at most bound / 2^64 per value). It stays as is:
  /// every seeded stream and golden pin in the suite depends on it.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    return next_u64() % bound;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Sample an index proportionally to non-negative weights.
  /// Returns weights.size() if all weights are zero or the span is empty.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Split off an independent child generator (seeded from this stream).
  Rng split() noexcept { return Rng(next_u64()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Stable 64-bit FNV-1a hash of a byte string; used to derive per-task seeds
/// from configuration names so adding tasks does not perturb other tasks.
std::uint64_t stable_hash(std::span<const char> bytes) noexcept;
std::uint64_t stable_hash(const std::string& s) noexcept;

/// Continue a stable_hash from `state`. FNV-1a streams and has no final
/// mix, so a hash is also the state after its bytes:
/// stable_hash_from(stable_hash(a), b) == stable_hash(a + b). A caller
/// hashes a constant prefix once and only the varying suffix per use.
std::uint64_t stable_hash_from(std::uint64_t state,
                               std::span<const char> bytes) noexcept;

}  // namespace pareval::support
