#pragma once
/// \file adc.hpp
/// \brief ADC resolution/energy modelling — the power argument behind
///        Sec. III.
///
/// "When considering Multigigabit/s communication speeds over a short
/// distance, the analog-to-digital conversion requires the main part of
/// the total energy consumption." This module quantifies that: a Walden
/// figure-of-merit ADC energy model, b-bit uniform quantization, and the
/// mutual information of coarsely quantized ASK — so the 1-bit +
/// oversampling operating point can be compared against multi-bit
/// Nyquist-rate receivers in bits per joule.

#include <cstddef>
#include <string>
#include <vector>

#include "wi/comm/modulation.hpp"

namespace wi::comm {

/// Symmetric mid-rise uniform quantizer with 2^bits levels clipped to
/// [-full_scale, full_scale].
class UniformQuantizer {
 public:
  UniformQuantizer(std::size_t bits, double full_scale = 2.0);

  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] std::size_t level_count() const {
    return std::size_t{1} << bits_;
  }
  [[nodiscard]] double full_scale() const { return full_scale_; }

  /// Quantize to a level index in [0, 2^bits).
  [[nodiscard]] std::size_t index(double x) const;

  /// Reconstruction value of a level index (bin midpoint).
  [[nodiscard]] double value(std::size_t index) const;

  /// Lower edge of a bin (index 0 edge is -infinity conceptually; this
  /// returns the finite threshold used by the MI integration).
  [[nodiscard]] double lower_edge(std::size_t index) const;

 private:
  std::size_t bits_;
  double full_scale_;
  double step_;
};

/// Exact mutual information of an ASK constellation over AWGN observed
/// through a b-bit uniform quantizer at one sample per symbol.
/// (bits = 1 reduces to the 1-bit no-oversampling case up to the
/// full-scale choice.)
[[nodiscard]] double mi_quantized_awgn(const Constellation& constellation,
                                       const UniformQuantizer& quantizer,
                                       double snr_db);

/// Walden figure-of-merit ADC energy model:
/// P = fom_j_per_conv_step * 2^bits * sample_rate.
struct AdcModel {
  double fom_j_per_conv_step = 50e-15;  ///< ~50 fJ/conv-step (mid-2010s)

  /// Power [W] of one converter.
  [[nodiscard]] double power_w(std::size_t bits, double sample_rate_hz) const;
};

/// One receiver front-end option in the energy comparison.
struct ReceiverOption {
  std::string name;
  std::size_t adc_bits = 1;
  std::size_t oversampling = 1;      ///< samples per symbol
  double info_rate_bpcu = 0.0;       ///< achievable rate at the op. SNR
};

/// Energy efficiency of an option at a symbol rate:
/// (ADC power) / (information throughput) [J/bit].
[[nodiscard]] double adc_energy_per_bit_j(const AdcModel& adc,
                                          const ReceiverOption& option,
                                          double symbol_rate_hz);

}  // namespace wi::comm
