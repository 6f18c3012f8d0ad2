#include "wi/common/quadrature.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace wi {
namespace {

TEST(GaussHermite, WeightsSumToSqrtPi) {
  for (const std::size_t n : {4u, 16u, 64u, 96u}) {
    const auto rule = gauss_hermite(n);
    double sum = 0.0;
    for (const double w : rule.weights) sum += w;
    EXPECT_NEAR(sum, std::sqrt(M_PI), 1e-9) << "n=" << n;
  }
}

TEST(GaussHermite, NodesSymmetric) {
  const auto rule = gauss_hermite(32);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(rule.nodes[i], -rule.nodes[31 - i], 1e-10);
    EXPECT_NEAR(rule.weights[i], rule.weights[31 - i], 1e-12);
  }
}

TEST(GaussHermite, IntegratesPolynomialsExactly) {
  // integral x^2 e^{-x^2} dx = sqrt(pi)/2; x^4 -> 3 sqrt(pi)/4.
  const auto rule = gauss_hermite(8);
  double m2 = 0.0;
  double m4 = 0.0;
  for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
    m2 += rule.weights[i] * rule.nodes[i] * rule.nodes[i];
    m4 += rule.weights[i] * std::pow(rule.nodes[i], 4.0);
  }
  EXPECT_NEAR(m2, std::sqrt(M_PI) / 2.0, 1e-10);
  EXPECT_NEAR(m4, 3.0 * std::sqrt(M_PI) / 4.0, 1e-9);
}

TEST(GaussHermite, RejectsBadSizes) {
  EXPECT_THROW(gauss_hermite(0), std::invalid_argument);
  EXPECT_THROW(gauss_hermite(300), std::invalid_argument);
}

}  // namespace
}  // namespace wi
