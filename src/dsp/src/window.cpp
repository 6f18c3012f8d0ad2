#include "wi/dsp/window.hpp"

#include <cmath>

#include "wi/common/constants.hpp"

namespace wi::dsp {

std::vector<double> make_window(WindowKind kind, std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / denom;
    switch (kind) {
      case WindowKind::kRectangular:
        w[i] = 1.0;
        break;
      case WindowKind::kHann:
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * x);
        break;
      case WindowKind::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * x);
        break;
      case WindowKind::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(kTwoPi * x) +
               0.08 * std::cos(2.0 * kTwoPi * x);
        break;
    }
  }
  return w;
}

}  // namespace wi::dsp
