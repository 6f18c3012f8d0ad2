#pragma once
/// \file math.hpp
/// \brief Small numerical helpers shared by all modules.

#include <cstddef>
#include <vector>

namespace wi {

/// Gaussian tail probability Q(x) = P(N(0,1) > x).
[[nodiscard]] double qfunc(double x);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x);

/// Binary entropy H_b(p) in bits; returns 0 at p in {0,1}.
[[nodiscard]] double binary_entropy(double p);

/// n uniformly spaced points including both endpoints (n >= 2),
/// or the single point {lo} for n == 1.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Piecewise-linear interpolation of (xs, ys) at x; clamps outside the
/// range. xs must be strictly increasing and the sizes must match.
[[nodiscard]] double interp_linear(const std::vector<double>& xs,
                                   const std::vector<double>& ys, double x);

}  // namespace wi
