#pragma once
/// \file bp_decoder.hpp
/// \brief Sum-product belief-propagation decoding on a Tanner graph,
///        with optional per-check parity targets so a window decoder can
///        freeze already-decoded symbols.

#include <cstdint>
#include <span>
#include <vector>

#include "wi/fec/sparse_matrix.hpp"

namespace wi::fec {

/// Decoder settings. Decoding stops at the first iteration whose hard
/// decisions satisfy every check.
struct BpOptions {
  int max_iterations = 50;
  double llr_clip = 30.0;  ///< message clipping for stability
};

/// Decoding outcome.
struct BpResult {
  std::vector<std::uint8_t> hard;  ///< hard decisions per variable
  std::vector<double> llr_out;     ///< posterior LLRs
  int iterations = 0;              ///< iterations actually run
  bool converged = false;          ///< syndrome satisfied
};

/// Caller-owned scratch of BpDecoder::decode: the per-edge messages,
/// the per-edge tanh(v2c/2) cache, the per-variable tanh of the channel
/// LLRs (iteration 1's messages) and the result. One workspace serves
/// any number of decodes on decoders of any size; after the first
/// decode at a given size none of them allocates.
struct BpWorkspace {
  std::vector<double> v2c;           ///< variable-to-check messages
  std::vector<double> c2v;           ///< check-to-variable messages
  std::vector<double> tanh_half;     ///< tanh(0.5 * clip(v2c)) per edge
  std::vector<double> tanh_channel;  ///< tanh(0.5 * clip(llr)) per variable
  BpResult result;
};

/// Flooding-schedule BP decoder bound to a parity-check matrix.
///
/// The LLR convention is positive = bit 0 more likely.
class BpDecoder {
 public:
  explicit BpDecoder(const SparseBinaryMatrix& h);

  /// Decode channel LLRs into `workspace.result` and return it.
  /// `check_parity` (optional) gives a target parity per check (default
  /// all zero); used to absorb the known contribution of frozen
  /// variables outside a decoding window.
  const BpResult& decode(std::span<const double> channel_llr,
                         const BpOptions& options,
                         const std::vector<std::uint8_t>* check_parity,
                         BpWorkspace& workspace) const;

  /// Same, with a workspace of its own.
  [[nodiscard]] BpResult decode(
      const std::vector<double>& channel_llr, const BpOptions& options = {},
      const std::vector<std::uint8_t>* check_parity = nullptr) const;

  [[nodiscard]] std::size_t variable_count() const { return n_vars_; }
  [[nodiscard]] std::size_t check_count() const { return n_checks_; }

 private:
  std::size_t n_vars_;
  std::size_t n_checks_;
  // Edges are grouped by check: per edge the variable it touches. The
  // variable side is a CSR view of the same edges, in increasing edge
  // id per variable.
  std::vector<std::uint32_t> check_edge_begin_;  ///< size n_checks+1
  std::vector<std::uint32_t> edge_var_;          ///< size n_edges
  std::vector<std::uint32_t> var_edge_begin_;    ///< size n_vars+1
  std::vector<std::uint32_t> var_edge_;          ///< size n_edges
};

}  // namespace wi::fec
