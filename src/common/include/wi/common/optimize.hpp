#pragma once
/// \file optimize.hpp
/// \brief Derivative-free minimisation used by the ISI filter design.

#include <functional>
#include <vector>

namespace wi {

/// Options for Nelder–Mead.
struct NelderMeadOptions {
  int max_evals = 2000;     ///< budget of objective evaluations
  double xtol = 1e-6;       ///< simplex size tolerance
  double ftol = 1e-9;       ///< objective spread tolerance
  double initial_step = 0.25;  ///< simplex edge length around the start
};

/// Result of a multidimensional minimisation.
struct MinimizeResult {
  std::vector<double> x;  ///< best point
  double fx = 0.0;        ///< best objective value
  int evaluations = 0;    ///< number of f evaluations
  bool converged = false;
};

/// Nelder–Mead downhill simplex minimisation of f starting from x0.
/// Robust to noisy objectives (used with Monte-Carlo information rates).
[[nodiscard]] MinimizeResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, const NelderMeadOptions& options = {});

}  // namespace wi
