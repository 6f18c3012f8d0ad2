/// Consistency of the window decoder against full-codeword BP: with the
/// window covering the whole terminated code, the two must agree; with
/// smaller windows the degradation must stay bounded at moderate noise.

#include <gtest/gtest.h>

#include "wi/common/rng.hpp"
#include "wi/fec/ber.hpp"

namespace wi::fec {
namespace {

std::vector<double> noisy_all_zero_llr(std::size_t n, double sigma,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> llr(n);
  for (auto& v : llr) {
    v = 2.0 / (sigma * sigma) * (1.0 + sigma * rng.gaussian());
  }
  return llr;
}

TEST(WindowVsFullBp, FullWindowMatchesFullBp) {
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 20, 8,
                                   31);
  const auto llr = noisy_all_zero_llr(code.codeword_length(), 0.65, 4);

  const BpDecoder full(code.parity_check());
  std::vector<double> full_llr = llr;
  // The full H has (L+mcc)*N check rows; the window decoder sees the
  // same matrix when W >= L, so decisions must match when both
  // converge.
  const BpResult bp = full.decode(full_llr);
  const WindowDecoder window(code, 100);  // clamps to L: one window
  const auto wd = window.decode(llr);
  ASSERT_TRUE(bp.converged);
  EXPECT_EQ(wd.hard, bp.hard);
  EXPECT_EQ(wd.windows_run, 1u);
}

class WindowSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSizeSweep, ResidualErrorsBounded) {
  // Every admissible window size decodes a moderately noisy channel to
  // (near) zero errors at 4 dB-equivalent noise.
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 20, 10,
                                   32);
  const double sigma = 0.63;  // ~4 dB Eb/N0 at R = 1/2
  const auto llr = noisy_all_zero_llr(code.codeword_length(), sigma, 5);
  const WindowDecoder decoder(code, GetParam());
  const auto result = decoder.decode(llr);
  std::size_t errors = 0;
  for (const auto bit : result.hard) errors += bit;
  EXPECT_LE(errors, 2u) << "W=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSizeSweep,
                         ::testing::Values(3, 4, 5, 6, 8, 10));

TEST(WindowVsFullBp, WindowLatencyIsTheOnlyDifferenceKnob) {
  // Same code object serves every window size (encoder untouched): the
  // paper's decoder-side flexibility.
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 25, 12,
                                   33);
  const WindowDecoder w3(code, 3);
  const WindowDecoder w8(code, 8);
  EXPECT_LT(window_decoder_latency_bits(3, code.lifting(), code.nv(),
                                       code.rate_asymptotic()),
            window_decoder_latency_bits(8, code.lifting(), code.nv(),
                                        code.rate_asymptotic()));
  // Both decode the same (clean) word.
  const std::vector<double> llr(code.codeword_length(), 6.0);
  EXPECT_EQ(w3.decode(llr).hard, w8.decode(llr).hard);
}

}  // namespace
}  // namespace wi::fec
