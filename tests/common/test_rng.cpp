#include "wi/common/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace wi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto x0 = a();
  const auto x1 = a();
  a.reseed(7);
  EXPECT_EQ(a(), x0);
  EXPECT_EQ(a(), x1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanVariance) {
  Rng rng(4);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.003);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // ~5 sigma
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(6);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 2.0);
  EXPECT_NEAR(sum / n, 3.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace wi
