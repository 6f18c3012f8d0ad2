#include "wi/fec/bp_decoder.hpp"

#include <gtest/gtest.h>

#include "wi/common/rng.hpp"
#include "wi/fec/ldpc_code.hpp"

namespace wi::fec {
namespace {

/// Tiny Hamming-like H = [1 1 0 1; 0 1 1 1] used for hand-checkable cases.
SparseBinaryMatrix tiny_h() {
  SparseBinaryMatrix h(2, 4);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(0, 3);
  h.insert(1, 1);
  h.insert(1, 2);
  h.insert(1, 3);
  return h;
}

TEST(BpDecoder, CleanLlrConvergesImmediately) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Codeword 0000 with strong LLRs.
  const BpResult result = decoder.decode({9.0, 9.0, 9.0, 9.0});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.hard, (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

TEST(BpDecoder, CorrectsSingleWeakBit) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Bit 0 slightly favours 1 but the checks pull it back to 0.
  const BpResult result = decoder.decode({-0.5, 6.0, 6.0, 6.0});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.hard[0], 0);
}

TEST(BpDecoder, RespectsCheckParityTargets) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Target parity {1, 0}: check 0 must be odd. With bits 1..3 pinned to
  // zero, bit 0 must come out 1 even though its channel LLR is weak.
  const std::vector<std::uint8_t> parity = {1, 0};
  const BpResult result =
      decoder.decode({0.2, 9.0, 9.0, 9.0}, BpOptions{}, &parity);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.hard[0], 1);
  EXPECT_EQ(result.hard[1], 0);
}

TEST(BpDecoder, SumProductCorrectsModerateNoise) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 100, 7);
  const BpDecoder decoder(code.parity_check());
  Rng rng(32);
  const double sigma = 0.75;  // ~2.5 dB Eb/N0 at rate 1/2
  std::vector<double> llr(code.block_length());
  int channel_errors = 0;
  for (auto& v : llr) {
    const double y = 1.0 + sigma * rng.gaussian();
    if (y < 0.0) ++channel_errors;
    v = 2.0 / (sigma * sigma) * y;
  }
  ASSERT_GT(channel_errors, 0);  // the channel actually flipped bits
  const BpResult result = decoder.decode(llr);
  int residual = 0;
  for (const auto bit : result.hard) residual += bit;
  EXPECT_LT(residual, channel_errors);
}

TEST(BpDecoder, IterationCapRespected) {
  // Two copies of one check with opposite parity targets: no decision
  // satisfies both, so decoding runs to the cap.
  SparseBinaryMatrix h(2, 2);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(1, 0);
  h.insert(1, 1);
  const BpDecoder decoder(h);
  const std::vector<std::uint8_t> parity = {0, 1};
  BpOptions options;
  options.max_iterations = 3;
  const BpResult result = decoder.decode({1.0, -1.0}, options, &parity);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_FALSE(result.converged);
}

TEST(BpDecoder, ZeroIterationsChecksAllZeroDecisions) {
  const BpDecoder decoder(tiny_h());
  BpOptions options;
  options.max_iterations = 0;
  const BpResult even = decoder.decode({-1.0, 1.0, 1.0, 1.0}, options);
  EXPECT_EQ(even.iterations, 0);
  EXPECT_TRUE(even.converged);  // all-zero decisions satisfy H
  const std::vector<std::uint8_t> parity = {1, 0};
  const BpResult odd =
      decoder.decode({-1.0, 1.0, 1.0, 1.0}, options, &parity);
  EXPECT_FALSE(odd.converged);
}

TEST(BpDecoder, PosteriorsSharpenChannelLlrs) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  const BpResult result = decoder.decode({2.0, 2.0, 2.0, 2.0});
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_GT(result.llr_out[v], 2.0);  // checks add confidence
  }
}

TEST(BpDecoder, RejectsBadInputSizes) {
  const BpDecoder decoder(tiny_h());
  EXPECT_THROW(decoder.decode({1.0, 2.0}), std::invalid_argument);
  const std::vector<std::uint8_t> bad_parity = {0};
  EXPECT_THROW(decoder.decode({1, 1, 1, 1}, BpOptions{}, &bad_parity),
               std::invalid_argument);
}

}  // namespace
}  // namespace wi::fec
