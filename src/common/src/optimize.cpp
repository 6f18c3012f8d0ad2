#include "wi/common/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace wi {

MinimizeResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  if (n == 0) throw std::invalid_argument("nelder_mead: empty start point");

  MinimizeResult result;
  result.evaluations = 0;

  auto eval = [&](const std::vector<double>& x) {
    ++result.evaluations;
    return f(x);
  };

  // Initial simplex: x0 plus a displaced vertex per coordinate.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  std::vector<double> fvals(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    simplex[i + 1][i] +=
        (x0[i] != 0.0) ? options.initial_step * std::abs(x0[i])
                       : options.initial_step;
  }
  for (std::size_t i = 0; i <= n; ++i) fvals[i] = eval(simplex[i]);

  constexpr double kAlpha = 1.0;   // reflection
  constexpr double kGamma = 2.0;   // expansion
  constexpr double kRho = 0.5;     // contraction
  constexpr double kSigma = 0.5;   // shrink

  std::vector<std::size_t> order(n + 1);
  while (result.evaluations < options.max_evals) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });

    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    // Convergence: simplex diameter and objective spread both small.
    double diameter = 0.0;
    for (std::size_t i = 0; i <= n; ++i) {
      double dist = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double d = simplex[i][j] - simplex[best][j];
        dist += d * d;
      }
      diameter = std::max(diameter, std::sqrt(dist));
    }
    if (diameter < options.xtol &&
        std::abs(fvals[worst] - fvals[best]) < options.ftol) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j];
    }
    for (auto& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double coeff) {
      std::vector<double> x(n);
      for (std::size_t j = 0; j < n; ++j) {
        x[j] = centroid[j] + coeff * (centroid[j] - simplex[worst][j]);
      }
      return x;
    };

    const std::vector<double> reflected = blend(kAlpha);
    const double f_reflected = eval(reflected);

    if (f_reflected < fvals[best]) {
      const std::vector<double> expanded = blend(kGamma);
      const double f_expanded = eval(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        fvals[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        fvals[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < fvals[second_worst]) {
      simplex[worst] = reflected;
      fvals[worst] = f_reflected;
      continue;
    }
    const std::vector<double> contracted = blend(-kRho);
    const double f_contracted = eval(contracted);
    if (f_contracted < fvals[worst]) {
      simplex[worst] = contracted;
      fvals[worst] = f_contracted;
      continue;
    }
    // Shrink towards the best vertex.
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t j = 0; j < n; ++j) {
        simplex[i][j] =
            simplex[best][j] + kSigma * (simplex[i][j] - simplex[best][j]);
      }
      fvals[i] = eval(simplex[i]);
    }
  }

  const std::size_t best = static_cast<std::size_t>(
      std::min_element(fvals.begin(), fvals.end()) - fvals.begin());
  result.x = simplex[best];
  result.fx = fvals[best];
  return result;
}

}  // namespace wi
