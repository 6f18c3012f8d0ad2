#pragma once
/// \file fft.hpp
/// \brief Discrete Fourier transforms.
///
/// Power-of-two lengths use an iterative radix-2 Cooley–Tukey FFT;
/// arbitrary lengths fall back to Bluestein's chirp-z algorithm (which
/// itself runs on the radix-2 kernel), so every length is O(n log n).
/// The VNA channel sounder (Fig. 1–3) relies on the inverse transform to
/// convert 4096-point frequency sweeps into impulse responses.

#include <complex>
#include <vector>

namespace wi::dsp {

using cplx = std::complex<double>;

/// True when n is a power of two (n >= 1).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// Forward DFT: X[k] = sum_n x[n] e^{-j 2 pi k n / N}. Any length.
[[nodiscard]] std::vector<cplx> fft(std::vector<cplx> x);

/// Inverse DFT with 1/N normalisation.
[[nodiscard]] std::vector<cplx> ifft(std::vector<cplx> x);

/// In-place radix-2 FFT; size must be a power of two.
/// inverse = true computes the unnormalised inverse transform.
void fft_radix2_inplace(std::vector<cplx>& x, bool inverse);

}  // namespace wi::dsp
