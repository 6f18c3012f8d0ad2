#include "wi/common/math.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wi {

double qfunc(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double normal_cdf(double x) { return 1.0 - qfunc(x); }

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n == 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;
  return out;
}

double interp_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys, double x) {
  if (xs.empty() || xs.size() != ys.size()) {
    throw std::invalid_argument("interp_linear: size mismatch or empty");
  }
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] + t * (ys[hi] - ys[lo]);
}

}  // namespace wi
