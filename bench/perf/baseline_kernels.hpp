#pragma once
/// \file baseline_kernels.hpp
/// \brief Pre-optimization reference implementations of the hot
///        simulation kernels (and their symbolwise/entropy siblings):
///        the info-rate trellis and the flit DES, frozen as of the PR
///        that vectorized them; the cycle-stepped flit DES loop, frozen
///        as of the PR that made the event core the only one in the
///        library; the BP / window LDPC decoders, frozen as of the
///        PR that gave them a workspace and one tanh per edge; and the
///        LDPC code construction, frozen as of the PR that started its
///        girth search from one column per base column.
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
#include "wi/common/fault.hpp"
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

/// The cycle-stepped simulate_network loop the event core replaced:
/// ring-buffer FIFOs and a dense next-hop table, every router visited
/// every cycle, the injection process drawn cycle by cycle, and the
/// same fault semantics (kill at the start of the cycle, reroute over
/// the survivors). The event core must match it bit for bit.
[[nodiscard]] noc::FlitSimResult simulate_network_legacy(
    const noc::Topology& topology, const noc::Routing& routing,
    const noc::TrafficPattern& traffic, double injection_rate,
    const noc::FlitSimConfig& config, const fault::FaultSchedule& faults);

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

/// Old fec::SparseBinaryMatrix::girth: a BFS from every variable node,
/// refilling two (rows + cols)-long arrays before each one.
[[nodiscard]] std::size_t girth_all_starts(const fec::SparseBinaryMatrix& h,
                                           std::size_t max_girth = 12);

/// Old fec::QcLdpcBlockCode construction (same shift draws and trials,
/// each candidate's girth from girth_all_starts); returns its H.
[[nodiscard]] fec::SparseBinaryMatrix qc_block_parity_check(
    const fec::BaseMatrix& base, std::size_t lifting, std::uint64_t seed = 1,
    int girth_trials = 8);

/// Old fec::LdpcConvolutionalCode construction, likewise; returns its H.
[[nodiscard]] fec::SparseBinaryMatrix ldpc_cc_parity_check(
    const fec::EdgeSpreading& spreading, std::size_t lifting,
    std::size_t termination, std::uint64_t seed = 1, int girth_trials = 8);

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
