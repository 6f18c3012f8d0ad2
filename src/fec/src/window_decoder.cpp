#include "wi/fec/window_decoder.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace wi::fec {

WindowDecoder::WindowDecoder(const LdpcConvolutionalCode& code,
                             std::size_t window, BpOptions bp_options)
    : code_(code), window_(window), bp_options_(bp_options) {
  if (window_ < code_.mcc() + 1) {
    throw std::invalid_argument(
        "WindowDecoder: W must be at least mcc + 1");
  }
  window_ = std::min(window_, code_.termination());

  // Precompute the per-position subproblems: the window structure only
  // depends on the position, so the (expensive) Tanner graph and
  // decoder construction happens once, not once per codeword.
  const std::size_t block_bits = code_.block_bits();
  const std::size_t big_l = code_.termination();
  const std::size_t check_block = code_.nc() * code_.lifting();
  const SparseBinaryMatrix& h = code_.parity_check();

  positions_.reserve(big_l);
  for (std::size_t t = 0; t < big_l; ++t) {
    Position pos;
    const std::size_t var_hi = std::min(t + window_, big_l);
    std::size_t chk_hi = t + window_;
    if (var_hi == big_l) chk_hi = big_l + code_.mcc();  // use termination
    chk_hi = std::min(chk_hi, big_l + code_.mcc());

    pos.var_begin = t * block_bits;
    pos.var_end = var_hi * block_bits;
    pos.chk_begin = t * check_block;
    pos.chk_end = chk_hi * check_block;
    pos.commit_end = (var_hi == big_l) ? pos.var_end
                                       : pos.var_begin + block_bits;
    pos.last = (var_hi == big_l);

    SparseBinaryMatrix sub(pos.chk_end - pos.chk_begin,
                           pos.var_end - pos.var_begin);
    for (std::size_t c = pos.chk_begin; c < pos.chk_end; ++c) {
      for (const std::uint32_t v : h.row(c)) {
        if (v >= pos.var_end) {
          throw std::logic_error("WindowDecoder: future variable in window");
        }
        if (v >= pos.var_begin) {
          sub.insert(c - pos.chk_begin, v - pos.var_begin);
        } else {
          // Frozen (already decoded) variable: its value feeds the
          // check's parity target at decode time.
          pos.frozen.push_back({static_cast<std::uint32_t>(c - pos.chk_begin),
                                static_cast<std::uint32_t>(v)});
        }
      }
    }
    pos.decoder = std::make_unique<BpDecoder>(sub);
    positions_.push_back(std::move(pos));
    if (positions_.back().last) break;  // the tail window commits the rest
  }
}

WindowDecodeResult WindowDecoder::decode(
    const std::vector<double>& channel_llr) const {
  WindowWorkspace workspace;
  decode(channel_llr, workspace);
  return std::move(workspace.result);
}

const WindowDecodeResult& WindowDecoder::decode(
    std::span<const double> channel_llr, WindowWorkspace& workspace) const {
  if (channel_llr.size() != code_.codeword_length()) {
    throw std::invalid_argument("WindowDecoder: LLR length mismatch");
  }

  WindowDecodeResult& result = workspace.result;
  result.hard.assign(channel_llr.size(), 0);
  result.windows_run = 0;
  result.bp_iterations = 0;
  result.unconverged = 0;

  std::vector<std::uint8_t>& parity = workspace.parity;
  for (const Position& pos : positions_) {
    parity.assign(pos.chk_end - pos.chk_begin, 0);
    for (const auto& [check, var] : pos.frozen) {
      parity[check] ^= result.hard[var];
    }
    const BpResult& bp = pos.decoder->decode(
        channel_llr.subspan(pos.var_begin, pos.var_end - pos.var_begin),
        bp_options_, &parity, workspace.bp);
    ++result.windows_run;
    result.bp_iterations += static_cast<std::size_t>(bp.iterations);
    if (!bp.converged) ++result.unconverged;

    // Commit the target block (everything left, at the final position).
    for (std::size_t v = pos.var_begin; v < pos.commit_end; ++v) {
      result.hard[v] = bp.hard[v - pos.var_begin];
    }
  }
  return result;
}

}  // namespace wi::fec
