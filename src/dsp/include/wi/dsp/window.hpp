#pragma once
/// \file window.hpp
/// \brief Spectral windows for the VNA post-processing.
///
/// The synthetic channel sounder applies a window to the frequency sweep
/// before the inverse transform to suppress sidelobes of the band-limited
/// impulse response, mirroring standard VNA time-domain practice.

#include <cstddef>
#include <vector>

namespace wi::dsp {

enum class WindowKind {
  kRectangular,  ///< no shaping
  kHann,         ///< raised cosine
  kHamming,      ///< 0.54/0.46 variant
  kBlackman,     ///< three-term, lower sidelobes
};

/// Window taps of the requested length (symmetric definition).
[[nodiscard]] std::vector<double> make_window(WindowKind kind, std::size_t n);

}  // namespace wi::dsp
