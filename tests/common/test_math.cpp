#include "wi/common/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wi {
namespace {

TEST(Qfunc, KnownValues) {
  EXPECT_NEAR(qfunc(0.0), 0.5, 1e-12);
  EXPECT_NEAR(qfunc(1.0), 0.15865525393145707, 1e-12);
  EXPECT_NEAR(qfunc(3.0), 1.3498980316300946e-3, 1e-12);
  EXPECT_NEAR(qfunc(-1.0), 1.0 - qfunc(1.0), 1e-12);
}

TEST(Qfunc, Monotone) {
  double prev = 1.0;
  for (double x = -5.0; x <= 5.0; x += 0.25) {
    const double q = qfunc(x);
    EXPECT_LT(q, prev);
    prev = q;
  }
}

TEST(NormalCdf, ComplementsQ) {
  for (double x = -3.0; x <= 3.0; x += 0.5) {
    EXPECT_NEAR(normal_cdf(x) + qfunc(x), 1.0, 1e-12);
  }
}

TEST(BinaryEntropy, Endpoints) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
}

TEST(BinaryEntropy, Symmetry) {
  for (const double p : {0.1, 0.25, 0.33, 0.45}) {
    EXPECT_NEAR(binary_entropy(p), binary_entropy(1.0 - p), 1e-12);
  }
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(0.0, 1.0, 11);
  ASSERT_EQ(v.size(), 11u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_NEAR(v[i] - v[i - 1], 0.1, 1e-12);
  }
}

TEST(Linspace, DegenerateSizes) {
  EXPECT_TRUE(linspace(0.0, 1.0, 0).empty());
  const auto one = linspace(5.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 5.0);
}

TEST(InterpLinear, InteriorAndClamping) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 3.0), 0.0);    // clamp high
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.0), 10.0);   // exact knot
}

TEST(InterpLinear, RejectsBadInput) {
  EXPECT_THROW((void)interp_linear({}, {}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)interp_linear({1.0}, {1.0, 2.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace wi
