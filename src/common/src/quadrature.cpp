#include "wi/common/quadrature.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "wi/common/constants.hpp"

namespace wi {

GaussHermiteRule gauss_hermite(std::size_t n) {
  if (n == 0 || n > 256) {
    throw std::invalid_argument("gauss_hermite: n must be in [1, 256]");
  }
  GaussHermiteRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);

  const double pi_quarter = std::pow(kPi, -0.25);
  // Roots come in +/- pairs; solve for the upper half with Newton.
  const std::size_t m = (n + 1) / 2;
  double z = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    // Initial guesses (Numerical Recipes heuristics).
    if (i == 0) {
      z = std::sqrt(2.0 * static_cast<double>(n) + 1.0) -
          1.85575 * std::pow(2.0 * static_cast<double>(n) + 1.0, -1.0 / 6.0);
    } else if (i == 1) {
      z -= 1.14 * std::pow(static_cast<double>(n), 0.426) / z;
    } else if (i == 2) {
      z = 1.86 * z - 0.86 * rule.nodes[0];
    } else if (i == 3) {
      z = 1.91 * z - 0.91 * rule.nodes[1];
    } else {
      z = 2.0 * z - rule.nodes[i - 2];
    }
    double pp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      // Recurrence for orthonormal Hermite functions.
      double p1 = pi_quarter;
      double p2 = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double p3 = p2;
        p2 = p1;
        const double jd = static_cast<double>(j);
        p1 = z * std::sqrt(2.0 / (jd + 1.0)) * p2 -
             std::sqrt(jd / (jd + 1.0)) * p3;
      }
      pp = std::sqrt(2.0 * static_cast<double>(n)) * p2;
      const double dz = p1 / pp;
      z -= dz;
      if (std::abs(dz) < 1e-14) break;
    }
    rule.nodes[i] = z;
    // Store symmetric counterparts from the top of the array.
    rule.nodes[n - 1 - i] = -z;
    const double w = 2.0 / (pp * pp);
    rule.weights[i] = w;
    rule.weights[n - 1 - i] = w;
  }
  // Sort ascending for predictable iteration order.
  for (std::size_t i = 0; i < n / 2; ++i) {
    std::swap(rule.nodes[i], rule.nodes[n - 1 - i]);
    std::swap(rule.weights[i], rule.weights[n - 1 - i]);
  }
  return rule;
}

const GaussHermiteRule& gauss_hermite_cached(std::size_t n) {
  // std::map node handles are address-stable, so returned references
  // outlive later insertions. The (sub-millisecond, once-per-n) Newton
  // solve deliberately runs under the lock: concurrent first callers
  // almost always want the same n and must wait for it anyway, and the
  // simple critical section guarantees each rule is built exactly once.
  static std::mutex mutex;
  static std::map<std::size_t, GaussHermiteRule> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  return cache.emplace(n, gauss_hermite(n)).first->second;
}

}  // namespace wi
