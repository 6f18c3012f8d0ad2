#include "wi/fec/window_decoder.hpp"

#include <gtest/gtest.h>

#include "wi/common/rng.hpp"
#include "wi/fec/encoder.hpp"

namespace wi::fec {
namespace {

LdpcConvolutionalCode make_code(std::size_t lifting = 20,
                                std::size_t termination = 10) {
  return LdpcConvolutionalCode(EdgeSpreading::paper_example(), lifting,
                               termination, 13);
}

TEST(WindowDecoder, RejectsTooSmallWindow) {
  const auto code = make_code();
  // W must be at least mcc + 1 = 3.
  EXPECT_THROW(WindowDecoder(code, 2), std::invalid_argument);
  EXPECT_NO_THROW(WindowDecoder(code, 3));
}

TEST(WindowDecoder, StructuralLatencyEq4) {
  const auto latency = [](const LdpcConvolutionalCode& code,
                          std::size_t window) {
    return window_decoder_latency_bits(window, code.lifting(), code.nv(),
                                       code.rate_asymptotic());
  };
  const auto code = make_code(40, 20);
  EXPECT_DOUBLE_EQ(latency(code, 5), 200.0);
  EXPECT_DOUBLE_EQ(latency(code, 3), 120.0);
  // Latency independent of L (the paper's remark on Eq. 4).
  EXPECT_DOUBLE_EQ(latency(make_code(40, 60), 5), 200.0);
}

TEST(WindowDecoder, CleanChannelDecodesToZero) {
  const auto code = make_code();
  const WindowDecoder decoder(code, 4);
  const std::vector<double> llr(code.codeword_length(), 8.0);
  const WindowDecodeResult result = decoder.decode(llr);
  for (const auto bit : result.hard) EXPECT_EQ(bit, 0);
  EXPECT_EQ(result.unconverged, 0u);
}

TEST(WindowDecoder, DecodesEncodedCodeword) {
  // Full loop: encode a random message, transmit noiselessly, window
  // decode, compare.
  const auto code = make_code(15, 8);
  const GaussianEncoder encoder(code.parity_check());
  Rng rng(51);
  std::vector<std::uint8_t> info(encoder.info_length());
  for (auto& b : info) b = static_cast<std::uint8_t>(rng.uniform_int(2));
  const auto codeword = encoder.encode(info);
  std::vector<double> llr(codeword.size());
  for (std::size_t i = 0; i < codeword.size(); ++i) {
    llr[i] = codeword[i] ? -7.0 : 7.0;
  }
  const WindowDecoder decoder(code, 4);
  const WindowDecodeResult result = decoder.decode(llr);
  EXPECT_EQ(result.hard, codeword);
}

TEST(WindowDecoder, CorrectsNoise) {
  const auto code = make_code(25, 12);
  const WindowDecoder decoder(code, 6);
  Rng rng(52);
  const double sigma = 0.7;  // ~3.1 dB Eb/N0 at R=1/2
  std::vector<double> llr(code.codeword_length());
  std::size_t channel_errors = 0;
  for (auto& v : llr) {
    const double y = 1.0 + sigma * rng.gaussian();
    if (y < 0.0) ++channel_errors;
    v = 2.0 / (sigma * sigma) * y;
  }
  ASSERT_GT(channel_errors, 10u);
  const WindowDecodeResult result = decoder.decode(llr);
  std::size_t residual = 0;
  for (const auto bit : result.hard) residual += bit;
  EXPECT_LT(residual, channel_errors / 2);
}

TEST(WindowDecoder, LargerWindowNotWorse) {
  // Bigger W sees more context: at a fixed noisy channel its residual
  // error count should not be (much) worse. Compare W=3 vs W=8.
  const auto code = make_code(25, 12);
  Rng rng(53);
  const double sigma = 0.72;
  std::vector<double> llr(code.codeword_length());
  for (auto& v : llr) {
    v = 2.0 / (sigma * sigma) * (1.0 + sigma * rng.gaussian());
  }
  auto residual = [&](std::size_t w) {
    const WindowDecoder decoder(code, w);
    const auto result = decoder.decode(llr);
    std::size_t count = 0;
    for (const auto bit : result.hard) count += bit;
    return count;
  };
  EXPECT_LE(residual(8), residual(3) + 2);
}

TEST(WindowDecoder, WindowCountMatchesTermination) {
  const auto code = make_code(15, 9);
  const WindowDecoder decoder(code, 4);
  const std::vector<double> llr(code.codeword_length(), 5.0);
  const auto result = decoder.decode(llr);
  // Sliding stops early when the final window covers the tail.
  EXPECT_LE(result.windows_run, 9u);
  EXPECT_GE(result.windows_run, 6u);
}

TEST(WindowDecoder, OversizedWindowClampsToFullCode) {
  const auto code = make_code(15, 6);
  const WindowDecoder decoder(code, 50);
  const std::vector<double> llr(code.codeword_length(), 5.0);
  const auto result = decoder.decode(llr);
  EXPECT_EQ(result.windows_run, 1u);  // whole code in one window
  for (const auto bit : result.hard) EXPECT_EQ(bit, 0);
}

TEST(WindowDecoder, RejectsWrongLlrLength) {
  const auto code = make_code();
  const WindowDecoder decoder(code, 4);
  EXPECT_THROW(decoder.decode(std::vector<double>(10, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace wi::fec
