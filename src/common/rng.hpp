// Deterministic random number generation.
//
// Every stochastic component (latency, loss, peer selection, fanout
// rounding...) draws from its own Rng stream, derived from the experiment
// seed with SplitMix64. Runs are therefore reproducible bit-for-bit for a
// given seed, independent of the order in which components are constructed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace hg {

// xoshiro256** by Blackman & Vigna — fast, high quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  [[nodiscard]] std::uint64_t next();

  // UniformRandomBitGenerator interface (usable with <random> distributions).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~std::uint64_t{0}; }

  // Uniform integer in [0, bound). Unbiased (Lemire rejection).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound);

  // Uniform double in [0, 1).
  [[nodiscard]] double uniform01();

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  // Bernoulli trial. Draws nothing when p <= 0 or p >= 1, so a loss rate of
  // 0 consumes no draw.
  [[nodiscard]] bool chance(double p);

  // Exponentially distributed with the given mean.
  [[nodiscard]] double exponential(double mean);

  // Normal via Box-Muller (no cached spare: simplicity over speed).
  [[nodiscard]] double normal(double mean, double stddev);

  // Derives an independent child stream; `stream_tag` distinguishes children.
  [[nodiscard]] Rng fork(std::uint64_t stream_tag) const;

  // k distinct uniform indices from [0, n), k <= n. Partial Fisher-Yates on a
  // caller-provided scratch pool to avoid per-call allocation.
  void sample_indices(std::size_t n, std::size_t k, std::vector<std::uint32_t>& out);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;  // retained for fork()
  std::vector<std::uint32_t> pool_;  // scratch for sample_indices
};

// SplitMix64: used for seeding and stream derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace hg
