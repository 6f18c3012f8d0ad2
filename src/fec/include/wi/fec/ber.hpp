#pragma once
/// \file ber.hpp
/// \brief Monte-Carlo bit-error-rate simulation over BPSK/AWGN and the
///        required-Eb/N0 search used for Fig. 10.
///
/// Simulations transmit the all-zero codeword — valid because the code is
/// linear and both channel and decoder are symmetric — and count decoded
/// ones as bit errors. The AWGN noise variance per BPSK symbol is
/// sigma^2 = 1 / (2 R Eb/N0), with R the code's design rate (the paper
/// normalises Eb by the asymptotic rate 1/2).

#include <cstdint>
#include <functional>
#include <vector>

#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/fec/window_decoder.hpp"

namespace wi::fec {

/// Monte-Carlo settings for one BER point.
struct BerConfig {
  double ebn0_db = 2.0;
  std::size_t min_errors = 50;       ///< stop after this many bit errors
  std::size_t max_codewords = 2000;  ///< hard cap on simulated codewords
  std::uint64_t seed = 1;
  BpOptions bp;
};

/// One measured BER point.
struct BerResult {
  double ber = 0.0;
  std::size_t bit_errors = 0;
  std::size_t bits = 0;
  std::size_t codewords = 0;
};

/// BER of a QC-LDPC block code under full BP.
[[nodiscard]] BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                                           const BpDecoder& decoder,
                                           const BerConfig& config);

/// Same, building the decoder for this one point.
[[nodiscard]] BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                                           const BerConfig& config);

/// BER of a terminated LDPC-CC under sliding window decoding. The
/// decoder carries its own BpOptions: `config.bp` is not consulted.
[[nodiscard]] BerResult simulate_ber_window(const WindowDecoder& decoder,
                                            const BerConfig& config);

/// Same, building a window-W decoder with `config.bp` for this one point.
[[nodiscard]] BerResult simulate_ber_window(const LdpcConvolutionalCode& code,
                                            std::size_t window,
                                            const BerConfig& config);

/// Required Eb/N0 [dB] to reach `target_ber`: steps up from `lo_db` in
/// `step_db` increments until the simulated BER drops below target, then
/// interpolates linearly in log10(BER). Returns `hi_db` when the target
/// is not reached within the range (reported as a censored point).
[[nodiscard]] double required_ebn0_db(
    const std::function<BerResult(double)>& simulate, double target_ber,
    double lo_db, double hi_db, double step_db = 0.25);

}  // namespace wi::fec
