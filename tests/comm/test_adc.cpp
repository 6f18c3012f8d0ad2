#include "wi/comm/adc.hpp"

#include <gtest/gtest.h>

#include "wi/comm/info_rate.hpp"

namespace wi::comm {
namespace {

TEST(UniformQuantizer, LevelsAndEdges) {
  const UniformQuantizer q(2, 2.0);  // 4 levels over [-2, 2], step 1
  EXPECT_EQ(q.level_count(), 4u);
  EXPECT_DOUBLE_EQ(q.value(0), -1.5);
  EXPECT_DOUBLE_EQ(q.value(3), 1.5);
  EXPECT_DOUBLE_EQ(q.lower_edge(2), 0.0);
}

TEST(UniformQuantizer, IndexMapping) {
  const UniformQuantizer q(2, 2.0);
  EXPECT_EQ(q.index(-5.0), 0u);   // clipped low
  EXPECT_EQ(q.index(-1.5), 0u);
  EXPECT_EQ(q.index(-0.5), 1u);
  EXPECT_EQ(q.index(0.5), 2u);
  EXPECT_EQ(q.index(5.0), 3u);    // clipped high
}

TEST(UniformQuantizer, RoundTripWithinHalfStep) {
  const UniformQuantizer q(4, 2.0);
  for (double x = -1.9; x <= 1.9; x += 0.13) {
    EXPECT_NEAR(q.value(q.index(x)), x, 0.125 + 1e-12);
  }
}

TEST(UniformQuantizer, RejectsBadConfig) {
  EXPECT_THROW(UniformQuantizer(0), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(17), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(4, 0.0), std::invalid_argument);
}

TEST(QuantizedMi, OneBitMatchesDedicatedFormula) {
  // A 1-bit quantizer with threshold at zero reproduces
  // mi_one_bit_no_oversampling.
  const Constellation c4 = Constellation::ask(4);
  const UniformQuantizer q(1, 4.0);
  for (const double snr : {0.0, 10.0, 25.0}) {
    EXPECT_NEAR(mi_quantized_awgn(c4, q, snr),
                mi_one_bit_no_oversampling(c4, snr), 1e-9)
        << "snr " << snr;
  }
}

TEST(QuantizedMi, MoreBitsNeverHurt) {
  const Constellation c4 = Constellation::ask(4);
  for (const double snr : {5.0, 15.0, 25.0}) {
    double prev = 0.0;
    for (const std::size_t bits : {1u, 2u, 3u, 4u, 6u}) {
      const double mi = mi_quantized_awgn(c4, UniformQuantizer(bits), snr);
      EXPECT_GE(mi, prev - 1e-9) << "bits " << bits << " snr " << snr;
      prev = mi;
    }
  }
}

TEST(QuantizedMi, ManyBitsApproachUnquantized) {
  const Constellation c4 = Constellation::ask(4);
  const double snr = 18.0;
  const double fine = mi_quantized_awgn(c4, UniformQuantizer(8, 4.0), snr);
  EXPECT_NEAR(fine, mi_unquantized_awgn(c4, snr), 0.01);
}

TEST(QuantizedMi, ThreeBitsResolveFourAskAtHighSnr) {
  // Sec. III's premise inverted: a 3-bit Nyquist ADC reaches ~2 bpcu at
  // high SNR where the 1-bit one is stuck at 1.
  const Constellation c4 = Constellation::ask(4);
  EXPECT_GT(mi_quantized_awgn(c4, UniformQuantizer(3), 30.0), 1.95);
  EXPECT_LT(mi_quantized_awgn(c4, UniformQuantizer(1), 30.0), 1.01);
}

TEST(AdcModel, WaldenScaling) {
  const AdcModel adc{50e-15};
  // Doubling the rate doubles power; +1 bit doubles power.
  EXPECT_NEAR(adc.power_w(4, 50e9) / adc.power_w(4, 25e9), 2.0, 1e-12);
  EXPECT_NEAR(adc.power_w(5, 25e9) / adc.power_w(4, 25e9), 2.0, 1e-12);
  // 1-bit at 125 GS/s: 50f * 2 * 125e9 = 12.5 mW.
  EXPECT_NEAR(adc.power_w(1, 125e9), 12.5e-3, 1e-9);
}

TEST(AdcEnergyPerBit, OneBitOversamplingWins) {
  // The Sec. III argument: at 25 GBd, a 1-bit ADC at 5x oversampling
  // spends less ADC energy per information bit than an 8-bit Nyquist
  // converter, despite the lower spectral efficiency.
  const AdcModel adc{50e-15};
  const double symbol_rate = 25e9;
  const ReceiverOption one_bit{"1bit-5xOS", 1, 5, 1.9};
  const ReceiverOption eight_bit{"8bit-Nyquist", 8, 1, 2.0};
  EXPECT_LT(adc_energy_per_bit_j(adc, one_bit, symbol_rate),
            adc_energy_per_bit_j(adc, eight_bit, symbol_rate));
}

TEST(AdcEnergyPerBit, RejectsZeroRate) {
  const AdcModel adc;
  const ReceiverOption bad{"x", 1, 1, 0.0};
  EXPECT_THROW((void)adc_energy_per_bit_j(adc, bad, 1e9), std::invalid_argument);
}

}  // namespace
}  // namespace wi::comm
