/// \file test_kernel_identity.cpp
/// \brief The optimized hot kernels must be output-identical — same
///        seeds, bitwise-equal results — to the frozen pre-optimization
///        implementations in wi_perf_baseline.
///
/// This is the contract the perf PR was built on: every sweep
/// ResultTable cell stays byte-identical because the kernels underneath
/// reproduce the baseline bit for bit (same RNG draw order, same
/// floating-point operation order). Both sides are compiled in this
/// binary, so EXPECT_DOUBLE_EQ is exact and portable.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "baseline_kernels.hpp"
#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/rng.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/fec/window_decoder.hpp"
#include "wi/noc/flit_sim.hpp"

namespace {

const wi::comm::Constellation& ask4() {
  static const wi::comm::Constellation c = wi::comm::Constellation::ask(4);
  return c;
}

TEST(KernelIdentity, SequenceInfoRate) {
  struct Case {
    const char* name;
    wi::comm::IsiFilter filter;
    double snr_db;
    wi::comm::SequenceRateOptions options;
  };
  const Case cases[] = {
      {"paper_25db", wi::comm::paper_filter_sequence(), 25.0, {20000, 7}},
      {"paper_5db", wi::comm::paper_filter_sequence(), 5.0, {20000, 7}},
      {"paper_seed11", wi::comm::paper_filter_sequence(), 15.0, {12000, 11}},
      {"suboptimal", wi::comm::paper_filter_suboptimal(), 18.0, {8000, 3}},
      {"rect_span1", wi::comm::IsiFilter::rectangular(5), 10.0, {9000, 42}},
      {"extreme_low_snr", wi::comm::paper_filter_sequence(), -35.0,
       {5000, 2}},
  };
  for (const Case& c : cases) {
    const wi::comm::OneBitOsChannel channel(c.filter, ask4(), c.snr_db);
    EXPECT_DOUBLE_EQ(
        wi::comm::info_rate_one_bit_sequence(channel, c.options),
        wi::perf_baseline::info_rate_one_bit_sequence(channel, c.options))
        << c.name;
  }
}

TEST(KernelIdentity, SymbolwiseMiAndConditionalEntropy) {
  for (const double snr : {-5.0, 5.0, 15.0, 25.0, 35.0}) {
    const wi::comm::OneBitOsChannel sym(wi::comm::paper_filter_symbolwise(),
                                        ask4(), snr);
    EXPECT_DOUBLE_EQ(wi::comm::mi_one_bit_symbolwise(sym),
                     wi::perf_baseline::mi_one_bit_symbolwise(sym))
        << "snr " << snr;
    const wi::comm::OneBitOsChannel seq(wi::comm::paper_filter_sequence(),
                                        ask4(), snr);
    EXPECT_DOUBLE_EQ(wi::comm::conditional_entropy_rate(seq),
                     wi::perf_baseline::conditional_entropy_rate(seq))
        << "snr " << snr;
  }
}

void expect_same_result(const wi::noc::FlitSimResult& a,
                        const wi::noc::FlitSimResult& b,
                        const char* label) {
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.injected, b.injected) << label;
  EXPECT_EQ(a.stable, b.stable) << label;
  EXPECT_DOUBLE_EQ(a.mean_latency_cycles, b.mean_latency_cycles) << label;
  EXPECT_DOUBLE_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << label;
}

TEST(KernelIdentity, FlitSimulator) {
  wi::noc::FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  struct Case {
    const char* name;
    wi::noc::Topology topo;
    wi::noc::TrafficPattern traffic;
    double rate;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"mesh2d_uniform", wi::noc::Topology::mesh_2d(8, 8),
       wi::noc::TrafficPattern::uniform(64), 0.25, 1},
      {"mesh3d_transpose", wi::noc::Topology::mesh_3d(4, 4, 4),
       wi::noc::TrafficPattern::transpose(64), 0.15, 5},
      {"star_mesh_hotspot", wi::noc::Topology::star_mesh(4, 4, 4),
       wi::noc::TrafficPattern::hotspot(64, 0, 0.3), 0.1, 9},
      {"saturated", wi::noc::Topology::mesh_2d(4, 4),
       wi::noc::TrafficPattern::uniform(16), 0.9, 3},
  };
  const wi::noc::DimensionOrderRouting dor;
  const wi::noc::ShortestPathRouting sp;
  for (const Case& c : cases) {
    config.seed = c.seed;
    expect_same_result(
        wi::noc::simulate_network(c.topo, dor, c.traffic, c.rate, config),
        wi::perf_baseline::simulate_network(c.topo, dor, c.traffic, c.rate,
                                            config),
        c.name);
    expect_same_result(
        wi::noc::simulate_network(c.topo, sp, c.traffic, c.rate, config),
        wi::perf_baseline::simulate_network(c.topo, sp, c.traffic, c.rate,
                                            config),
        c.name);
  }
}

// --- LDPC decoders ----------------------------------------------------

/// BPSK/AWGN channel LLRs of the all-zero codeword (the BER loop's
/// convention), drawn from `seed`.
std::vector<double> channel_llrs(std::size_t n, double ebn0_db, double rate,
                                 std::uint64_t seed) {
  const double sigma =
      std::sqrt(1.0 / (2.0 * rate * std::pow(10.0, ebn0_db / 10.0)));
  wi::Rng rng(seed);
  std::vector<double> llr(n);
  for (double& v : llr) v = 2.0 / (sigma * sigma) * (1.0 + sigma * rng.gaussian());
  return llr;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << label << " at " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_same_bp(const wi::fec::BpResult& a, const wi::fec::BpResult& b,
                    const char* label) {
  EXPECT_EQ(a.hard, b.hard) << label;
  expect_bitwise_equal(a.llr_out, b.llr_out, label);
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

const wi::fec::QcLdpcBlockCode& block_code(std::size_t lifting) {
  static const wi::fec::QcLdpcBlockCode small(wi::fec::BaseMatrix({{4, 4}}),
                                              40, 40);
  static const wi::fec::QcLdpcBlockCode large(wi::fec::BaseMatrix({{4, 4}}),
                                              150, 150);
  return lifting == 40 ? small : large;
}

TEST(KernelIdentity, BpDecoderSumProduct) {
  const auto& code = block_code(150);
  const wi::fec::BpDecoder fast(code.parity_check());
  const wi::perf_baseline::BpDecoder frozen(code.parity_check());
  wi::fec::BpWorkspace workspace;
  for (const double ebn0 : {1.0, 2.5, 4.0}) {
    const auto llr = channel_llrs(code.block_length(), ebn0, 0.5, 11);
    expect_same_bp(fast.decode(llr, {}, nullptr, workspace),
                   frozen.decode(llr), "sum-product");
    expect_same_bp(fast.decode(llr), frozen.decode(llr), "wrapper");
  }
}

TEST(KernelIdentity, BpDecoderSaturatedFallback) {
  // Exact-zero channel LLRs make tanh(0) = 0 on their edges, which
  // forces the explicit leave-one-out product on every check they touch.
  const auto& code = block_code(150);
  const wi::fec::BpDecoder fast(code.parity_check());
  const wi::perf_baseline::BpDecoder frozen(code.parity_check());
  wi::fec::BpWorkspace workspace;
  for (const std::size_t stride : {3u, 7u, 29u}) {
    auto llr = channel_llrs(code.block_length(), 2.0, 0.5, 5 + stride);
    for (std::size_t i = 0; i < llr.size(); i += stride) llr[i] = 0.0;
    expect_same_bp(fast.decode(llr, {}, nullptr, workspace),
                   frozen.decode(llr), "saturated");
  }
}

TEST(KernelIdentity, BpDecoderCheckParity) {
  const auto& code = block_code(150);
  const wi::fec::BpDecoder fast(code.parity_check());
  const wi::perf_baseline::BpDecoder frozen(code.parity_check());
  std::vector<std::uint8_t> parity(code.check_count());
  wi::Rng rng(77);
  for (auto& p : parity) p = rng.uniform() < 0.3 ? 1 : 0;
  const auto llr = channel_llrs(code.block_length(), 2.5, 0.5, 31);
  wi::fec::BpWorkspace workspace;
  wi::fec::BpOptions options;
  options.max_iterations = 12;
  expect_same_bp(fast.decode(llr, options, &parity, workspace),
                 frozen.decode(llr, options, &parity), "parity");
  expect_same_bp(fast.decode(llr, options, nullptr, workspace),
                 frozen.decode(llr, options), "iteration cap");
}

TEST(KernelIdentity, BpDecoderWorkspaceReusedAcrossCodeSizes) {
  wi::fec::BpWorkspace workspace;
  for (const std::size_t lifting : {150u, 40u, 150u, 40u}) {
    const auto& code = block_code(lifting);
    const wi::fec::BpDecoder fast(code.parity_check());
    const wi::perf_baseline::BpDecoder frozen(code.parity_check());
    const auto llr = channel_llrs(code.block_length(), 2.0, 0.5, lifting);
    expect_same_bp(fast.decode(llr, {}, nullptr, workspace),
                   frozen.decode(llr), "reused workspace");
  }
}

/// BP options that reach every value BpDecoder::decode computes once
/// and reuses: a small clip saturates most messages (tanh of +-clip, and
/// the clamped leave-one-out products' atanh), max_iterations = 1 stops
/// on the per-variable channel tanh alone.
std::vector<wi::fec::BpOptions> saturating_options() {
  std::vector<wi::fec::BpOptions> out;
  for (const double clip : {30.0, 4.0, 1.0}) {
    for (const int iterations : {1, 2, 20}) {
      wi::fec::BpOptions options;
      options.llr_clip = clip;
      options.max_iterations = iterations;
      out.push_back(options);
    }
  }
  return out;
}

/// Channel LLRs with every fifth value moved exactly onto +-clip, and
/// every seventh beyond it, either sign.
std::vector<double> llrs_at_clip(std::size_t n, double clip,
                                 std::uint64_t seed) {
  auto llr = channel_llrs(n, 2.0, 0.5, seed);
  for (std::size_t i = 0; i < n; i += 5) llr[i] = (i % 2) ? -clip : clip;
  for (std::size_t i = 3; i < n; i += 7) {
    llr[i] = (i % 3) ? 1.5 * clip : -4.0 * clip;
  }
  return llr;
}

TEST(KernelIdentity, BpDecoderSaturatedMessagesAndOneIteration) {
  // One workspace throughout: the per-variable tanh array resizes as
  // the code size changes under it.
  wi::fec::BpWorkspace workspace;
  for (const std::size_t lifting : {150u, 40u, 150u}) {
    const auto& code = block_code(lifting);
    const wi::fec::BpDecoder fast(code.parity_check());
    const wi::perf_baseline::BpDecoder frozen(code.parity_check());
    std::vector<std::uint8_t> parity(code.check_count());
    wi::Rng rng(lifting);
    for (auto& p : parity) p = rng.uniform() < 0.3 ? 1 : 0;
    for (const wi::fec::BpOptions& options : saturating_options()) {
      const auto at_clip =
          llrs_at_clip(code.block_length(), options.llr_clip, lifting);
      const auto noisy = channel_llrs(code.block_length(), 1.5, 0.5, 7);
      for (const auto* llr : {&at_clip, &noisy}) {
        expect_same_bp(fast.decode(*llr, options, nullptr, workspace),
                       frozen.decode(*llr, options), "saturating");
        expect_same_bp(fast.decode(*llr, options, &parity, workspace),
                       frozen.decode(*llr, options, &parity),
                       "saturating, parity");
      }
    }
  }
}

void expect_same_window(const wi::fec::WindowDecodeResult& a,
                        const wi::fec::WindowDecodeResult& b,
                        const char* label) {
  EXPECT_EQ(a.hard, b.hard) << label;
  EXPECT_EQ(a.windows_run, b.windows_run) << label;
  EXPECT_EQ(a.bp_iterations, b.bp_iterations) << label;
  EXPECT_EQ(a.unconverged, b.unconverged) << label;
}

TEST(KernelIdentity, WindowDecoderAcrossWindowsAndNoise) {
  const wi::fec::LdpcConvolutionalCode code(
      wi::fec::EdgeSpreading::paper_example(), 25, 10, 25);
  wi::fec::WindowWorkspace workspace;
  for (const std::size_t w : {3u, 5u, 8u, 12u}) {
    const wi::fec::WindowDecoder fast(code, w);
    const wi::perf_baseline::WindowDecoder frozen(code, w);
    for (const double ebn0 : {1.5, 3.0, 4.5}) {
      const auto llr = channel_llrs(code.codeword_length(), ebn0,
                                    code.rate_asymptotic(), 100 + w);
      expect_same_window(fast.decode(llr, workspace), frozen.decode(llr),
                         "window");
      expect_same_window(fast.decode(llr), frozen.decode(llr), "wrapper");
    }
  }
}

TEST(KernelIdentity, WindowDecoderSaturatedAndIterationCap) {
  const wi::fec::LdpcConvolutionalCode code(
      wi::fec::EdgeSpreading::paper_example(), 25, 8, 25);
  auto llr = channel_llrs(code.codeword_length(), 2.0,
                          code.rate_asymptotic(), 9);
  for (std::size_t i = 0; i < llr.size(); i += 11) llr[i] = 0.0;
  wi::fec::WindowWorkspace workspace;
  wi::fec::BpOptions options;
  options.max_iterations = 15;
  const wi::fec::WindowDecoder fast(code, 4, options);
  const wi::perf_baseline::WindowDecoder frozen(code, 4, options);
  expect_same_window(fast.decode(llr, workspace), frozen.decode(llr),
                     "options");
}

TEST(KernelIdentity, WindowDecoderWorkspaceReusedAcrossCodes) {
  const wi::fec::LdpcConvolutionalCode small(
      wi::fec::EdgeSpreading::paper_example(), 25, 10, 25);
  const wi::fec::LdpcConvolutionalCode large(
      wi::fec::EdgeSpreading::paper_example(), 40, 12, 40);
  wi::fec::WindowWorkspace workspace;
  for (const auto* code : {&large, &small, &large}) {
    const wi::fec::WindowDecoder fast(*code, 4);
    const wi::perf_baseline::WindowDecoder frozen(*code, 4);
    const auto llr = channel_llrs(code->codeword_length(), 2.5,
                                  code->rate_asymptotic(), code->lifting());
    expect_same_window(fast.decode(llr, workspace), frozen.decode(llr),
                       "reused workspace");
  }
}

TEST(KernelIdentity, WindowDecoderSaturatedMessagesAndOneIteration) {
  const wi::fec::LdpcConvolutionalCode small(
      wi::fec::EdgeSpreading::paper_example(), 25, 8, 25);
  const wi::fec::LdpcConvolutionalCode large(
      wi::fec::EdgeSpreading::paper_example(), 40, 10, 40);
  wi::fec::WindowWorkspace workspace;
  for (const auto* code : {&large, &small}) {
    for (const wi::fec::BpOptions& options : saturating_options()) {
      const wi::fec::WindowDecoder fast(*code, 4, options);
      const wi::perf_baseline::WindowDecoder frozen(*code, 4, options);
      const auto llr = llrs_at_clip(code->codeword_length(),
                                    options.llr_clip, code->lifting());
      expect_same_window(fast.decode(llr, workspace), frozen.decode(llr),
                         "saturating window");
    }
  }
}

// --- LDPC code construction --------------------------------------------

/// The girth BFS starts the lifted codes use: column c * N per base
/// column c.
std::vector<std::size_t> block_starts(std::size_t base_cols,
                                      std::size_t lifting) {
  std::vector<std::size_t> starts;
  for (std::size_t c = 0; c < base_cols; ++c) starts.push_back(c * lifting);
  return starts;
}

/// An irregular 3x4 protograph: base columns of degree 2, 4, 2 and 4.
wi::fec::BaseMatrix irregular_base() {
  return wi::fec::BaseMatrix({{1, 1, 1, 1}, {1, 2, 0, 1}, {0, 1, 1, 2}});
}

void expect_same_girths(const wi::fec::SparseBinaryMatrix& h,
                        const std::vector<std::size_t>& starts,
                        const char* label, std::size_t lifting,
                        std::uint64_t seed) {
  for (const std::size_t max_girth : {4u, 6u, 8u, 12u}) {
    EXPECT_EQ(h.girth_from(starts, max_girth),
              wi::perf_baseline::girth_all_starts(h, max_girth))
        << label << " N=" << lifting << " seed=" << seed
        << " max_girth=" << max_girth;
  }
}

TEST(KernelIdentity, GirthFromOneColumnPerBaseColumnMatchesAllStarts) {
  // Rotating every circulant block and (for LDPC-CC) shifting back in
  // time are automorphisms, so one BFS start per base column sees the
  // same girth as one per column. Each lifting here is the first
  // candidate its constructor draws (girth_trials = 1).
  const auto spreading = wi::fec::EdgeSpreading::paper_example();
  for (std::size_t n = 4; n <= 40; ++n) {
    for (const std::size_t l : {3u, 5u, 10u}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const wi::fec::LdpcConvolutionalCode code(spreading, n, l, seed, 1);
        expect_same_girths(code.parity_check(), block_starts(code.nv(), n),
                           "LDPC-CC", n, seed);
      }
    }
  }
  const wi::fec::BaseMatrix regular({{4, 4}});
  const wi::fec::BaseMatrix irregular = irregular_base();
  for (const auto* base : {&regular, &irregular}) {
    for (std::size_t n = 4; n <= 40; ++n) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const wi::fec::QcLdpcBlockCode code(*base, n, seed, 1);
        expect_same_girths(code.parity_check(),
                           block_starts(base->cols(), n), "QC-LDPC", n, seed);
      }
    }
  }
}

void expect_same_matrix(const wi::fec::SparseBinaryMatrix& a,
                        const wi::fec::SparseBinaryMatrix& b,
                        const char* label, std::size_t lifting) {
  ASSERT_EQ(a.rows(), b.rows()) << label << " N=" << lifting;
  ASSERT_EQ(a.cols(), b.cols()) << label << " N=" << lifting;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(a.row(r), b.row(r)) << label << " N=" << lifting << " row " << r;
  }
}

TEST(KernelIdentity, CodeConstructionMatchesAllStarts) {
  // The liftings, terminations and seeds of fig10_ldpc_latency (L = 24)
  // and of the ldpc benchmark (L = 10).
  const auto spreading = wi::fec::EdgeSpreading::paper_example();
  const wi::fec::BaseMatrix regular({{4, 4}});
  for (const std::size_t n : {25u, 40u, 60u}) {
    for (const std::size_t l : {10u, 24u}) {
      const wi::fec::LdpcConvolutionalCode code(spreading, n, l, n);
      expect_same_matrix(
          code.parity_check(),
          wi::perf_baseline::ldpc_cc_parity_check(spreading, n, l, n),
          "LDPC-CC", n);
    }
  }
  for (const std::size_t n : {100u, 150u, 200u, 300u, 400u}) {
    const wi::fec::QcLdpcBlockCode code(regular, n, n);
    expect_same_matrix(code.parity_check(),
                       wi::perf_baseline::qc_block_parity_check(regular, n, n),
                       "LDPC-BC", n);
  }
  // Small liftings, where candidates' girths differ and every start
  // column counts; an irregular base has base columns of unlike degree.
  const wi::fec::BaseMatrix irregular = irregular_base();
  for (std::size_t n = 4; n <= 24; ++n) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_matrix(
          wi::fec::LdpcConvolutionalCode(spreading, n, 5, seed).parity_check(),
          wi::perf_baseline::ldpc_cc_parity_check(spreading, n, 5, seed),
          "small LDPC-CC", n);
      for (const auto* base : {&regular, &irregular}) {
        expect_same_matrix(
            wi::fec::QcLdpcBlockCode(*base, n, seed).parity_check(),
            wi::perf_baseline::qc_block_parity_check(*base, n, seed),
            "small QC-LDPC", n);
      }
    }
  }
}

}  // namespace
