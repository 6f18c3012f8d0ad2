#include "wi/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "wi/common/constants.hpp"
#include "wi/common/rng.hpp"

namespace wi::dsp {
namespace {

std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -kTwoPi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      acc += x[j] * cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(4096));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(4097));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(8, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  const auto spectrum = fft(x);
  for (const auto& v : spectrum) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<cplx> x(n);
  const std::size_t bin = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = kTwoPi * static_cast<double>(bin) *
                         static_cast<double>(i) / static_cast<double>(n);
    x[i] = {std::cos(angle), std::sin(angle)};
  }
  const auto spectrum = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin) {
      EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, MatchesNaiveDftPowerOfTwo) {
  Rng rng(21);
  std::vector<cplx> x(32);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-9);
  }
}

TEST(Fft, MatchesNaiveDftArbitraryLength) {
  // Bluestein path: non-power-of-two sizes, including primes.
  for (const std::size_t n : {3u, 7u, 12u, 100u, 129u}) {
    Rng rng(22 + n);
    std::vector<cplx> x(n);
    for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
    const auto fast = fft(x);
    const auto slow = naive_dft(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-8) << "n=" << n;
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  for (const std::size_t n : {16u, 100u, 4096u}) {
    Rng rng(23);
    std::vector<cplx> x(n);
    for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
    const auto back = ifft(fft(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-9) << "n=" << n;
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(24);
  std::vector<cplx> x(256);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  const auto spectrum = fft(x);
  double freq_energy = 0.0;
  for (const auto& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy,
              1e-6);
}

TEST(Fft, EmptyInputPassesThrough) {
  EXPECT_TRUE(fft({}).empty());
  EXPECT_TRUE(ifft({}).empty());
}

TEST(Fft, Radix2RejectsNonPowerOfTwo) {
  std::vector<cplx> x(12);
  EXPECT_THROW(fft_radix2_inplace(x, false), std::invalid_argument);
}

}  // namespace
}  // namespace wi::dsp
