#include "wi/fec/bp_decoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace wi::fec {

BpDecoder::BpDecoder(const SparseBinaryMatrix& h)
    : n_vars_(h.cols()), n_checks_(h.rows()) {
  check_edge_begin_.resize(n_checks_ + 1, 0);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    check_edge_begin_[c + 1] =
        check_edge_begin_[c] + static_cast<std::uint32_t>(h.row(c).size());
  }
  const std::uint32_t n_edges = check_edge_begin_[n_checks_];
  edge_var_.resize(n_edges);
  var_edge_begin_.assign(n_vars_ + 1, 0);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    std::uint32_t e = check_edge_begin_[c];
    for (const std::uint32_t v : h.row(c)) {
      edge_var_[e++] = v;
      ++var_edge_begin_[v + 1];
    }
  }
  for (std::size_t v = 0; v < n_vars_; ++v) {
    var_edge_begin_[v + 1] += var_edge_begin_[v];
  }
  // Scatter edge ids in increasing order, so each variable lists its
  // edges in increasing id (the order its messages are summed in).
  var_edge_.resize(n_edges);
  std::vector<std::uint32_t> fill(var_edge_begin_.begin(),
                                  var_edge_begin_.end() - 1);
  for (std::uint32_t e = 0; e < n_edges; ++e) {
    var_edge_[fill[edge_var_[e]]++] = e;
  }
}

BpResult BpDecoder::decode(const std::vector<double>& channel_llr,
                           const BpOptions& options,
                           const std::vector<std::uint8_t>* check_parity) const {
  BpWorkspace workspace;
  decode(channel_llr, options, check_parity, workspace);
  return std::move(workspace.result);
}

const BpResult& BpDecoder::decode(std::span<const double> channel_llr,
                                  const BpOptions& options,
                                  const std::vector<std::uint8_t>* check_parity,
                                  BpWorkspace& workspace) const {
  if (channel_llr.size() != n_vars_) {
    throw std::invalid_argument("BpDecoder::decode: LLR length mismatch");
  }
  if (check_parity != nullptr && check_parity->size() != n_checks_) {
    throw std::invalid_argument("BpDecoder::decode: parity length mismatch");
  }
  const std::size_t n_edges = edge_var_.size();
  // Every message array is written before it is read, so resizing
  // (which never shrinks capacity) is all the set-up they need.
  std::vector<double>& v2c = workspace.v2c;
  std::vector<double>& c2v = workspace.c2v;
  std::vector<double>& tanh_half = workspace.tanh_half;
  std::vector<double>& tanh_channel = workspace.tanh_channel;
  v2c.resize(n_edges);
  c2v.resize(n_edges);
  tanh_half.resize(n_edges);

  BpResult& result = workspace.result;
  result.hard.assign(n_vars_, 0);
  result.llr_out.assign(channel_llr.begin(), channel_llr.end());
  result.iterations = 0;
  result.converged = false;

  const double clip = options.llr_clip;
  auto clipped = [clip](double x) { return std::clamp(x, -clip, clip); };

  // Saturated messages take one of four values, each computed once per
  // decode. A clamp returns its bound itself, so a message equal to
  // +-clip bit for bit feeds tanh the same argument as the bound does
  // (bits, not ==, so -0.0 and +0.0 stay apart at clip = 0).
  const std::uint64_t clip_hi_bits = std::bit_cast<std::uint64_t>(clip);
  const std::uint64_t clip_lo_bits = std::bit_cast<std::uint64_t>(-clip);
  const double tanh_hi = std::tanh(0.5 * clip);
  const double tanh_lo = std::tanh(0.5 * -clip);
  const auto half_tanh = [&](double x) {
    const double c = clipped(x);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(c);
    if (bits == clip_hi_bits) return tanh_hi;
    if (bits == clip_lo_bits) return tanh_lo;
    return std::tanh(0.5 * c);
  };
  constexpr double kTanhMax = 0.9999999999;
  const double c2v_hi = clipped(2.0 * std::atanh(kTanhMax));
  const double c2v_lo = clipped(2.0 * std::atanh(-kTanhMax));

  // Initial variable-to-check messages are the channel LLRs. Sum-product
  // reads them only through tanh, and every edge of a variable carries
  // the same one, so iteration 1 takes one tanh per variable instead.
  tanh_channel.resize(n_vars_);
  for (std::size_t v = 0; v < n_vars_; ++v) {
    tanh_channel[v] = half_tanh(channel_llr[v]);
  }
  const auto syndrome_matches = [&] {
    for (std::size_t c = 0; c < n_checks_; ++c) {
      std::uint8_t parity = 0;
      for (std::uint32_t e = check_edge_begin_[c];
           e < check_edge_begin_[c + 1]; ++e) {
        parity ^= result.hard[edge_var_[e]];
      }
      const std::uint8_t target =
          (check_parity != nullptr) ? (*check_parity)[c] : 0;
      if (parity != target) return false;
    }
    return true;
  };

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;

    // Check node update.
    for (std::size_t c = 0; c < n_checks_; ++c) {
      const std::uint32_t begin = check_edge_begin_[c];
      const std::uint32_t end = check_edge_begin_[c + 1];
      const double target_sign =
          (check_parity != nullptr && (*check_parity)[c]) ? -1.0 : 1.0;
      // Sum-product via the tanh rule: one tanh per edge into the
      // cache, then leave-one-out by division, with an explicit
      // product over the cache when a message saturates.
      double prod = target_sign;
      bool saturated = false;
      for (std::uint32_t e = begin; e < end; ++e) {
        const double t =
            iter == 1 ? tanh_channel[edge_var_[e]] : half_tanh(v2c[e]);
        tanh_half[e] = t;
        if (std::abs(t) < 1e-12) saturated = true;
        prod *= t;
      }
      for (std::uint32_t e = begin; e < end; ++e) {
        double t_out;
        const double t_e = tanh_half[e];
        if (!saturated && std::abs(t_e) > 1e-12) {
          t_out = prod / t_e;
        } else {
          t_out = target_sign;
          for (std::uint32_t e2 = begin; e2 < end; ++e2) {
            if (e2 == e) continue;
            t_out *= tanh_half[e2];
          }
        }
        t_out = std::clamp(t_out, -kTanhMax, kTanhMax);
        if (t_out == kTanhMax) {
          c2v[e] = c2v_hi;
        } else if (t_out == -kTanhMax) {
          c2v[e] = c2v_lo;
        } else {
          c2v[e] = clipped(2.0 * std::atanh(t_out));
        }
      }
    }

    // Variable node update and posterior.
    for (std::size_t v = 0; v < n_vars_; ++v) {
      const std::uint32_t begin = var_edge_begin_[v];
      const std::uint32_t end = var_edge_begin_[v + 1];
      double total = channel_llr[v];
      for (std::uint32_t i = begin; i < end; ++i) total += c2v[var_edge_[i]];
      result.llr_out[v] = total;
      result.hard[v] = total < 0.0 ? 1 : 0;
      for (std::uint32_t i = begin; i < end; ++i) {
        const std::uint32_t e = var_edge_[i];
        v2c[e] = clipped(total - c2v[e]);
      }
    }

    if (syndrome_matches()) {
      result.converged = true;
      return result;
    }
  }
  // Every iteration run failed the check above; a decode that ran none
  // checks its all-zero decisions.
  result.converged = result.iterations == 0 && syndrome_matches();
  return result;
}

}  // namespace wi::fec
