#pragma once
/// \file quadrature.hpp
/// \brief Gauss–Hermite quadrature for expectations over Gaussian noise.
///
/// Used by the unquantized mutual-information reference curve of Fig. 6:
/// E[g(Z)] with Z ~ N(0,1) is approximated by
///   sum_i w_i / sqrt(pi) * g(sqrt(2) x_i)
/// where (x_i, w_i) are the Gauss–Hermite nodes and weights.

#include <cstddef>
#include <vector>

namespace wi {

/// Nodes and weights of an n-point Gauss–Hermite rule (weight e^{-x^2}).
struct GaussHermiteRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// Computes the n-point rule via Newton iteration on the Hermite
/// polynomials (Golub–Welsch-equivalent accuracy for n <= 128).
[[nodiscard]] GaussHermiteRule gauss_hermite(std::size_t n);

/// Thread-safe memoized rule keyed by node count: the Newton solve is
/// O(n^2 * iterations) and the hot callers (mi_unquantized_awgn on every
/// SNR-grid point) always reuse the same handful of n values. The
/// returned reference stays valid for the lifetime of the process.
[[nodiscard]] const GaussHermiteRule& gauss_hermite_cached(std::size_t n);

}  // namespace wi
