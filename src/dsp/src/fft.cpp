#include "wi/dsp/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "wi/common/constants.hpp"

namespace wi::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_radix2_inplace(std::vector<cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2_inplace: size must be 2^k");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 1.0 : -1.0) * kTwoPi / static_cast<double>(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = x[i + k];
        const cplx v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Bluestein chirp-z transform for arbitrary length.
std::vector<cplx> bluestein(const std::vector<cplx>& x, bool inverse) {
  const std::size_t n = x.size();
  const double sign = inverse ? 1.0 : -1.0;
  // w[k] = e^{sign * j pi k^2 / n}; indices squared mod 2n to avoid overflow.
  std::vector<cplx> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    w[k] = cplx(std::cos(angle), std::sin(angle));
  }
  const std::size_t m = next_pow2(2 * n - 1);
  std::vector<cplx> a(m, cplx{});
  std::vector<cplx> b(m, cplx{});
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = x[k] * w[k];
    b[k] = std::conj(w[k]);
  }
  for (std::size_t k = 1; k < n; ++k) b[m - k] = std::conj(w[k]);
  fft_radix2_inplace(a, false);
  fft_radix2_inplace(b, false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_radix2_inplace(a, true);
  const double scale = 1.0 / static_cast<double>(m);
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * w[k] * scale;
  return out;
}

}  // namespace

std::vector<cplx> fft(std::vector<cplx> x) {
  if (x.empty()) return x;
  if (is_power_of_two(x.size())) {
    fft_radix2_inplace(x, false);
    return x;
  }
  return bluestein(x, false);
}

std::vector<cplx> ifft(std::vector<cplx> x) {
  if (x.empty()) return x;
  const double inv_n = 1.0 / static_cast<double>(x.size());
  if (is_power_of_two(x.size())) {
    fft_radix2_inplace(x, true);
  } else {
    x = bluestein(x, true);
  }
  for (auto& v : x) v *= inv_n;
  return x;
}

}  // namespace wi::dsp
