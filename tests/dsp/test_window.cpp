#include "wi/dsp/window.hpp"

#include <gtest/gtest.h>

namespace wi::dsp {
namespace {

class WindowKindTest : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowKindTest, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 65);
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(w[i], w[n - 1 - i], 1e-12);
  }
  for (const double v : w) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST_P(WindowKindTest, PeakAtCentre) {
  const auto w = make_window(GetParam(), 33);
  const std::size_t mid = 16;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(w[i], w[mid] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowKindTest,
                         ::testing::Values(WindowKind::kRectangular,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kBlackman));

TEST(Window, RectangularIsFlat) {
  const auto w = make_window(WindowKind::kRectangular, 10);
  for (const double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndpointsZero) {
  const auto w = make_window(WindowKind::kHann, 21);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[10], 1.0, 1e-12);
}

TEST(Window, HammingEndpointsNonZero) {
  const auto w = make_window(WindowKind::kHamming, 21);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
}

TEST(Window, DegenerateSizes) {
  EXPECT_TRUE(make_window(WindowKind::kHann, 0).empty());
  const auto one = make_window(WindowKind::kHann, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 1.0);
}

}  // namespace
}  // namespace wi::dsp
