#include "wi/common/optimize.hpp"

#include <gtest/gtest.h>

namespace wi {
namespace {

TEST(NelderMead, MinimizesQuadraticBowl) {
  const auto result = nelder_mead(
      [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
      },
      {0.0, 0.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], -2.0, 1e-3);
  EXPECT_LT(result.fx, 1e-5);
}

TEST(NelderMead, MinimizesRosenbrock) {
  NelderMeadOptions options;
  options.max_evals = 20000;
  options.xtol = 1e-9;
  const auto result = nelder_mead(
      [](const std::vector<double>& x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
      },
      {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], 1.0, 1e-2);
}

TEST(NelderMead, RespectsEvalBudget) {
  NelderMeadOptions options;
  options.max_evals = 50;
  int evals = 0;
  const auto result = nelder_mead(
      [&](const std::vector<double>& x) {
        ++evals;
        return x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
      },
      {3.0, -2.0, 5.0}, options);
  EXPECT_LE(evals, 50 + 4);  // small slack for the final shrink pass
  EXPECT_EQ(result.evaluations, evals);
}

TEST(NelderMead, RejectsEmptyStart) {
  EXPECT_THROW(
      nelder_mead([](const std::vector<double>&) { return 0.0; }, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace wi
