#pragma once
/// \file baseline_kernels.hpp
/// \brief Pre-optimization reference implementations of the hot
///        simulation kernels (and their symbolwise/entropy siblings):
///        the info-rate trellis and the flit DES, frozen as of the PR
///        that vectorized them, and the BP / window LDPC decoders,
///        frozen as of the PR that gave them a workspace and one tanh
///        per edge.
///
/// They exist for two reasons: the bench/perf suite and tools/perf_report
/// measure the optimized kernels against them in the same process (so
/// reported speedups are immune to machine drift), and
/// tests/perf/test_kernel_identity.cpp asserts the optimized kernels
/// produce bit-identical outputs at fixed seeds. Do not "fix" or speed
/// these up — they are the measurement yardstick.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "wi/comm/info_rate.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/fec/window_decoder.hpp"
#include "wi/noc/flit_sim.hpp"

namespace wi::perf_baseline {

/// Old info_rate_one_bit_sequence: per-branch sample probabilities in
/// nested vectors, m multiplications per branch per symbol, fresh
/// Monte-Carlo simulation on every call.
[[nodiscard]] double info_rate_one_bit_sequence(
    const comm::OneBitOsChannel& channel,
    const comm::SequenceRateOptions& options = {});

/// Old mi_one_bit_symbolwise: per-window 2^m * m product loop.
[[nodiscard]] double mi_one_bit_symbolwise(
    const comm::OneBitOsChannel& channel);

/// Old conditional_entropy_rate: re-enumerates every window.
[[nodiscard]] double conditional_entropy_rate(
    const comm::OneBitOsChannel& channel);

/// Old simulate_network: std::deque queues, per-router per-cycle budget
/// allocation, lazy next-hop cache with an unbounded output-port scan.
[[nodiscard]] noc::FlitSimResult simulate_network(
    const noc::Topology& topology, const noc::Routing& routing,
    const noc::TrafficPattern& traffic, double injection_rate,
    const noc::FlitSimConfig& config = {});

/// Old fec::BpDecoder: per-variable edge lists in nested vectors, fresh
/// message and result vectors on every decode, and two tanh evaluations
/// per edge per iteration (plus a third pass in the saturated fallback).
class BpDecoder {
 public:
  explicit BpDecoder(const fec::SparseBinaryMatrix& h);

  [[nodiscard]] fec::BpResult decode(
      const std::vector<double>& channel_llr,
      const fec::BpOptions& options = {},
      const std::vector<std::uint8_t>* check_parity = nullptr) const;

 private:
  std::size_t n_vars_;
  std::size_t n_checks_;
  std::vector<std::uint32_t> check_edge_begin_;
  std::vector<std::uint32_t> edge_var_;
  std::vector<std::vector<std::uint32_t>> var_edges_;
};

/// Old fec::WindowDecoder: fresh parity-target and sub-LLR vectors per
/// window position per codeword, decoded by the old BpDecoder above.
class WindowDecoder {
 public:
  WindowDecoder(const fec::LdpcConvolutionalCode& code, std::size_t window,
                fec::BpOptions bp_options = {});

  [[nodiscard]] fec::WindowDecodeResult decode(
      const std::vector<double>& channel_llr) const;

 private:
  struct Position {
    std::size_t var_begin = 0;
    std::size_t var_end = 0;
    std::size_t chk_begin = 0;
    std::size_t chk_end = 0;
    std::size_t commit_end = 0;
    bool last = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> frozen;
    std::unique_ptr<BpDecoder> decoder;
  };

  const fec::LdpcConvolutionalCode& code_;
  std::size_t window_;
  fec::BpOptions bp_options_;
  std::vector<Position> positions_;
};

}  // namespace wi::perf_baseline
