#include "support/rng.hpp"

#include <string>

namespace pareval::support {

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return weights.size();
  double r = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;  // numeric slop lands on the last bucket
}

std::uint64_t stable_hash_from(std::uint64_t state,
                               std::span<const char> bytes) noexcept {
  for (char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::uint64_t stable_hash(std::span<const char> bytes) noexcept {
  return stable_hash_from(0xcbf29ce484222325ULL, bytes);  // offset basis
}

std::uint64_t stable_hash(const std::string& s) noexcept {
  return stable_hash(std::span<const char>(s.data(), s.size()));
}

}  // namespace pareval::support
