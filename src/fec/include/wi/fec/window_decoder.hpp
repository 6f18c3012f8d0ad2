#pragma once
/// \file window_decoder.hpp
/// \brief Sliding window decoder for terminated LDPC convolutional codes
///        (Fig. 9 of the paper).
///
/// A window of W coupled blocks slides over the received sequence. To
/// decode the target block y_t the decoder waits for the W-1 succeeding
/// blocks (this wait is the structural latency of Eq. 4) and needs read
/// access to the mcc previously decoded blocks, whose known values are
/// absorbed into per-check parity targets.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"

namespace wi::fec {

/// Window decoder statistics.
struct WindowDecodeResult {
  std::vector<std::uint8_t> hard;  ///< decisions for all L blocks
  std::size_t windows_run = 0;     ///< number of window positions
  std::size_t bp_iterations = 0;   ///< summed BP iterations
  std::size_t unconverged = 0;     ///< windows whose BP did not converge
};

/// Caller-owned scratch of WindowDecoder::decode: the BP workspace every
/// window position shares, the position's parity targets, and the
/// result. Reusable across decoders and codes of any size.
struct WindowWorkspace {
  BpWorkspace bp;
  std::vector<std::uint8_t> parity;
  WindowDecodeResult result;
};

/// Sliding window decoder bound to a code and window size W.
class WindowDecoder {
 public:
  /// \param window  W in [mcc+1, L-1] per the paper (larger values are
  ///                clamped to the full code, equivalent to block BP)
  WindowDecoder(const LdpcConvolutionalCode& code, std::size_t window,
                BpOptions bp_options = {});

  /// Decode a full received LLR sequence (length L * N * nv) into
  /// `workspace.result` and return it.
  const WindowDecodeResult& decode(std::span<const double> channel_llr,
                                   WindowWorkspace& workspace) const;

  /// Same, with a workspace of its own.
  [[nodiscard]] WindowDecodeResult decode(
      const std::vector<double>& channel_llr) const;

  [[nodiscard]] const LdpcConvolutionalCode& code() const { return code_; }
  [[nodiscard]] std::size_t window() const { return window_; }

 private:
  /// Precomputed subproblem for one window position (the Tanner graph
  /// of a window only depends on the position, not the codeword).
  struct Position {
    std::size_t var_begin = 0;
    std::size_t var_end = 0;
    std::size_t chk_begin = 0;
    std::size_t chk_end = 0;
    std::size_t commit_end = 0;  ///< decisions committed up to here
    bool last = false;
    /// (local check index, global frozen variable) pairs feeding the
    /// check parity targets from previously decoded blocks.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> frozen;
    std::unique_ptr<BpDecoder> decoder;
  };

  const LdpcConvolutionalCode& code_;
  std::size_t window_;
  BpOptions bp_options_;
  std::vector<Position> positions_;
};

}  // namespace wi::fec
