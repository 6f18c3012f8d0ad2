#pragma once
/// \file rng.hpp
/// \brief Deterministic, fast random number generation.
///
/// All stochastic components of the library take an explicit seed so every
/// experiment is reproducible. The generator is xoshiro256++ (public
/// domain algorithm by Blackman & Vigna), which is much faster than
/// std::mt19937_64 and has excellent statistical quality for simulation
/// workloads.

#include <cmath>
#include <cstdint>
#include <limits>

#include "wi/common/constants.hpp"

namespace wi {

/// xoshiro256++ pseudo random generator with convenience distributions.
///
/// Satisfies the C++ `UniformRandomBitGenerator` concept, so it can also be
/// plugged into `<random>` distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a single 64-bit value via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-seed the generator (same expansion as the constructor).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  ///
  /// The distribution helpers below are defined inline: they sit on the
  /// innermost loops of the Monte-Carlo kernels (one-bit channel
  /// simulation, flit injection), where the call overhead of an
  /// out-of-line definition is measurable. The arithmetic is unchanged,
  /// so every seeded stream is bit-identical to the out-of-line version.
  double uniform() {
    // 53 random mantissa bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n), n > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's unbiased bounded generation (rejection on the tail).
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = next();
      const __uint128_t m = static_cast<__uint128_t>(r) * n;
      if (static_cast<std::uint64_t>(m) >= threshold) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Standard normal sample (Box–Muller with caching).
  double gaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    // Box–Muller; u1 is kept away from 0 to avoid log(0).
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    cached_gaussian_ = radius * std::sin(kTwoPi * u2);
    has_cached_gaussian_ = true;
    return radius * std::cos(kTwoPi * u2);
  }

  /// Normal sample with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Raw 64-bit generator step. Consumes exactly one draw, the same
  /// draw uniform()/bernoulli() would consume: uniform() of that step
  /// is (raw() >> 11) * 0x1.0p-53, and bernoulli(p) of that step is
  /// (raw() >> 11) < ceil(p * 2^53) — the scaling by a power of two is
  /// exact, so batch consumers can test in integer space and stay
  /// bit-compatible with the double path.
  std::uint64_t raw() { return next(); }

 private:
  static std::uint64_t rotl64(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl64(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl64(s_[3], 45);
    return result;
  }

  std::uint64_t s_[4]{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace wi
