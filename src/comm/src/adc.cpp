#include "wi/comm/adc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "wi/common/math.hpp"
#include "wi/comm/os_channel.hpp"

namespace wi::comm {

UniformQuantizer::UniformQuantizer(std::size_t bits, double full_scale)
    : bits_(bits), full_scale_(full_scale),
      step_(2.0 * full_scale / static_cast<double>(std::size_t{1} << bits)) {
  if (bits == 0 || bits > 16) {
    throw std::invalid_argument("UniformQuantizer: bits in [1, 16]");
  }
  if (!(full_scale > 0.0)) {
    throw std::invalid_argument("UniformQuantizer: full scale > 0");
  }
}

std::size_t UniformQuantizer::index(double x) const {
  const double clipped = std::clamp(x, -full_scale_, full_scale_);
  const auto idx =
      static_cast<long long>(std::floor((clipped + full_scale_) / step_));
  return static_cast<std::size_t>(
      std::clamp<long long>(idx, 0, static_cast<long long>(level_count()) - 1));
}

double UniformQuantizer::value(std::size_t index) const {
  return -full_scale_ + (static_cast<double>(index) + 0.5) * step_;
}

double UniformQuantizer::lower_edge(std::size_t index) const {
  return -full_scale_ + static_cast<double>(index) * step_;
}

double mi_quantized_awgn(const Constellation& constellation,
                         const UniformQuantizer& quantizer, double snr_db) {
  const double sigma = noise_std_for_snr_db(snr_db);
  const std::size_t order = constellation.order();
  const std::size_t levels = quantizer.level_count();

  // P(q | x): probability mass of the Gaussian in each quantizer bin
  // (outermost bins absorb the tails).
  std::vector<std::vector<double>> p(order, std::vector<double>(levels));
  for (std::size_t i = 0; i < order; ++i) {
    const double x = constellation.level(i);
    for (std::size_t q = 0; q < levels; ++q) {
      const double lo = (q == 0)
                            ? -1e300
                            : (quantizer.lower_edge(q) - x) / sigma;
      const double hi = (q + 1 == levels)
                            ? 1e300
                            : (quantizer.lower_edge(q + 1) - x) / sigma;
      p[i][q] = normal_cdf(hi) - normal_cdf(lo);
    }
  }
  std::vector<double> marginal(levels, 0.0);
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t q = 0; q < levels; ++q) {
      marginal[q] += p[i][q] / static_cast<double>(order);
    }
  }
  double mi = 0.0;
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t q = 0; q < levels; ++q) {
      if (p[i][q] > 0.0 && marginal[q] > 0.0) {
        mi += p[i][q] / static_cast<double>(order) *
              std::log2(p[i][q] / marginal[q]);
      }
    }
  }
  return std::max(0.0, mi);
}

double AdcModel::power_w(std::size_t bits, double sample_rate_hz) const {
  return fom_j_per_conv_step *
         static_cast<double>(std::size_t{1} << bits) * sample_rate_hz;
}

double adc_energy_per_bit_j(const AdcModel& adc, const ReceiverOption& option,
                            double symbol_rate_hz) {
  if (!(option.info_rate_bpcu > 0.0)) {
    throw std::invalid_argument("adc_energy_per_bit_j: zero rate option");
  }
  const double sample_rate =
      symbol_rate_hz * static_cast<double>(option.oversampling);
  const double power = adc.power_w(option.adc_bits, sample_rate);
  const double throughput_bps = option.info_rate_bpcu * symbol_rate_hz;
  return power / throughput_bps;
}

}  // namespace wi::comm
