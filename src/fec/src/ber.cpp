#include "wi/fec/ber.hpp"

#include <cmath>
#include <stdexcept>

#include "wi/common/rng.hpp"

namespace wi::fec {

namespace {

double noise_sigma(double ebn0_db, double rate) {
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  return std::sqrt(1.0 / (2.0 * rate * ebn0));
}

/// The Monte-Carlo loop shared by both code families: all-zero codeword
/// over BPSK/AWGN, `decode` maps channel LLRs to hard decisions.
template <typename Decode>
BerResult simulate_ber(std::size_t n, double rate, const BerConfig& config,
                       Decode&& decode) {
  const double sigma = noise_sigma(config.ebn0_db, rate);
  const double llr_scale = 2.0 / (sigma * sigma);
  Rng rng(config.seed);

  BerResult result;
  std::vector<double> llr(n);
  while (result.codewords < config.max_codewords &&
         result.bit_errors < config.min_errors) {
    for (std::size_t i = 0; i < n; ++i) {
      llr[i] = llr_scale * (1.0 + sigma * rng.gaussian());
    }
    const std::vector<std::uint8_t>& hard = decode(llr);
    for (std::size_t i = 0; i < n; ++i) {
      result.bit_errors += hard[i];
    }
    result.bits += n;
    ++result.codewords;
  }
  result.ber = result.bits == 0 ? 0.0
                                : static_cast<double>(result.bit_errors) /
                                      static_cast<double>(result.bits);
  return result;
}

}  // namespace

BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                             const BpDecoder& decoder,
                             const BerConfig& config) {
  if (decoder.variable_count() != code.block_length()) {
    throw std::invalid_argument("simulate_ber_block: decoder/code mismatch");
  }
  BpWorkspace workspace;
  const auto decode = [&](const std::vector<double>& llr)
      -> const std::vector<std::uint8_t>& {
    return decoder.decode(llr, config.bp, nullptr, workspace).hard;
  };
  return simulate_ber(code.block_length(), code.design_rate(), config,
                      decode);
}

BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                             const BerConfig& config) {
  return simulate_ber_block(code, BpDecoder(code.parity_check()), config);
}

BerResult simulate_ber_window(const WindowDecoder& decoder,
                              const BerConfig& config) {
  const LdpcConvolutionalCode& code = decoder.code();
  WindowWorkspace workspace;
  const auto decode = [&](const std::vector<double>& llr)
      -> const std::vector<std::uint8_t>& {
    return decoder.decode(llr, workspace).hard;
  };
  return simulate_ber(code.codeword_length(), code.rate_asymptotic(), config,
                      decode);
}

BerResult simulate_ber_window(const LdpcConvolutionalCode& code,
                              std::size_t window, const BerConfig& config) {
  return simulate_ber_window(WindowDecoder(code, window, config.bp), config);
}

double required_ebn0_db(const std::function<BerResult(double)>& simulate,
                        double target_ber, double lo_db, double hi_db,
                        double step_db) {
  double prev_db = lo_db;
  double prev_log_ber = 0.0;
  bool have_prev = false;
  for (double ebn0 = lo_db; ebn0 <= hi_db + 1e-9; ebn0 += step_db) {
    const BerResult r = simulate(ebn0);
    // A zero-error run is read as "below target" at this point.
    const double ber = (r.bit_errors == 0)
                           ? target_ber / 10.0
                           : r.ber;
    if (ber <= target_ber) {
      if (!have_prev) return ebn0;  // already below target at the start
      // Linear interpolation in log10(BER).
      const double log_target = std::log10(target_ber);
      const double log_cur = std::log10(ber);
      const double frac =
          (prev_log_ber - log_target) / (prev_log_ber - log_cur);
      return prev_db + frac * (ebn0 - prev_db);
    }
    prev_db = ebn0;
    prev_log_ber = std::log10(ber);
    have_prev = true;
  }
  return hi_db;  // censored: target not reached in range
}

}  // namespace wi::fec
