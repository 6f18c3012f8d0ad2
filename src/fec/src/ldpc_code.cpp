#include "wi/fec/ldpc_code.hpp"

#include <algorithm>
#include <stdexcept>

#include "wi/common/rng.hpp"

namespace wi::fec {

namespace {

/// Draw `count` distinct shifts in [0, lifting).
ShiftSet draw_shifts(std::size_t count, std::size_t lifting, Rng& rng) {
  if (count > lifting) {
    throw std::invalid_argument("lifting too small for edge multiplicity");
  }
  ShiftSet shifts;
  while (shifts.size() < count) {
    const std::size_t s = rng.uniform_int(lifting);
    if (std::find(shifts.begin(), shifts.end(), s) == shifts.end()) {
      shifts.push_back(s);
    }
  }
  return shifts;
}

/// Insert the circulants of one protograph entry at block (br, bc).
void place_circulants(SparseBinaryMatrix& h, std::size_t block_row,
                      std::size_t block_col, const ShiftSet& shifts,
                      std::size_t lifting) {
  for (const std::size_t shift : shifts) {
    for (std::size_t i = 0; i < lifting; ++i) {
      h.insert(block_row * lifting + i,
               block_col * lifting + (i + shift) % lifting);
    }
  }
}

/// Shifts for every entry of a base matrix: index [r * cols + c].
std::vector<ShiftSet> draw_shift_table(const BaseMatrix& base,
                                       std::size_t lifting, Rng& rng) {
  std::vector<ShiftSet> table(base.rows() * base.cols());
  for (std::size_t r = 0; r < base.rows(); ++r) {
    for (std::size_t c = 0; c < base.cols(); ++c) {
      const int multiplicity = base.at(r, c);
      if (multiplicity > 0) {
        table[r * base.cols() + c] =
            draw_shifts(static_cast<std::size_t>(multiplicity), lifting, rng);
      }
    }
  }
  return table;
}

/// The girth BFS starts of a lifted code: column c * N, the first
/// column of base column c's block, for each base column c.
///
/// Every circulant maps row i of its block to column (i + shift) mod N,
/// so rotating each N-block of rows and of columns by one is an
/// automorphism of the Tanner graph. It carries any cycle onto one
/// through the first column of a block its variables lie in. In an
/// LDPC-CC, section t repeats section 0's circulants t blocks further
/// on, so shifting a cycle back by the earliest section its variables
/// lie in is a cycle too, through section 0. A BFS from these starts
/// alone therefore finds the girth that a BFS from every column finds.
std::vector<std::size_t> girth_starts(std::size_t base_cols,
                                      std::size_t lifting) {
  std::vector<std::size_t> starts(base_cols);
  for (std::size_t c = 0; c < base_cols; ++c) starts[c] = c * lifting;
  return starts;
}

SparseBinaryMatrix lift_block(const BaseMatrix& base, std::size_t lifting,
                              const std::vector<ShiftSet>& table) {
  SparseBinaryMatrix h(base.rows() * lifting, base.cols() * lifting);
  for (std::size_t r = 0; r < base.rows(); ++r) {
    for (std::size_t c = 0; c < base.cols(); ++c) {
      const auto& shifts = table[r * base.cols() + c];
      if (!shifts.empty()) place_circulants(h, r, c, shifts, lifting);
    }
  }
  return h;
}

}  // namespace

QcLdpcBlockCode::QcLdpcBlockCode(const BaseMatrix& base, std::size_t lifting,
                                 std::uint64_t seed, int girth_trials)
    : base_(base), lifting_(lifting), h_(1, 1) {
  if (lifting == 0) throw std::invalid_argument("QcLdpcBlockCode: N >= 1");
  Rng rng(seed);
  const std::vector<std::size_t> starts = girth_starts(base.cols(), lifting);
  std::size_t best_girth = 0;
  for (int trial = 0; trial < std::max(1, girth_trials); ++trial) {
    const auto table = draw_shift_table(base, lifting, rng);
    SparseBinaryMatrix candidate = lift_block(base, lifting, table);
    const std::size_t g = candidate.girth_from(starts);
    if (g > best_girth) {
      best_girth = g;
      h_ = std::move(candidate);
    }
  }
}

double QcLdpcBlockCode::design_rate() const {
  return 1.0 - static_cast<double>(base_.rows()) /
                   static_cast<double>(base_.cols());
}

LdpcConvolutionalCode::LdpcConvolutionalCode(EdgeSpreading spreading,
                                             std::size_t lifting,
                                             std::size_t termination,
                                             std::uint64_t seed,
                                             int girth_trials)
    : spreading_(std::move(spreading)), lifting_(lifting),
      termination_(termination), h_(1, 1) {
  if (lifting == 0 || termination == 0) {
    throw std::invalid_argument("LdpcConvolutionalCode: N, L >= 1");
  }
  Rng rng(seed);
  const std::size_t rows = (termination_ + mcc()) * nc() * lifting_;
  const std::size_t cols = termination_ * nv() * lifting_;
  const std::vector<std::size_t> starts = girth_starts(nv(), lifting_);

  std::size_t best_girth = 0;
  for (int trial = 0; trial < std::max(1, girth_trials); ++trial) {
    // One shift table per component; reused at every time instant
    // (time-invariant convolutional lifting).
    std::vector<std::vector<ShiftSet>> tables;
    tables.reserve(mcc() + 1);
    for (std::size_t i = 0; i <= mcc(); ++i) {
      tables.push_back(
          draw_shift_table(spreading_.component(i), lifting_, rng));
    }
    SparseBinaryMatrix candidate(rows, cols);
    for (std::size_t t = 0; t < termination_; ++t) {
      for (std::size_t i = 0; i <= mcc(); ++i) {
        const BaseMatrix& b = spreading_.component(i);
        for (std::size_t r = 0; r < nc(); ++r) {
          for (std::size_t c = 0; c < nv(); ++c) {
            const auto& shifts = tables[i][r * b.cols() + c];
            if (!shifts.empty()) {
              place_circulants(candidate, (t + i) * nc() + r, t * nv() + c,
                               shifts, lifting_);
            }
          }
        }
      }
    }
    // By time invariance, a BFS from section 0's nv starts sees the
    // girth of the whole terminated matrix (see girth_starts).
    const std::size_t g = candidate.girth_from(starts);
    if (g > best_girth) {
      best_girth = g;
      h_ = std::move(candidate);
    }
    if (best_girth >= 8) break;  // good enough for BP
  }
}

double LdpcConvolutionalCode::rate_asymptotic() const {
  return 1.0 - static_cast<double>(nc()) / static_cast<double>(nv());
}

double LdpcConvolutionalCode::rate_terminated() const {
  return 1.0 - static_cast<double>((termination_ + mcc()) * nc()) /
                   static_cast<double>(termination_ * nv());
}

double window_decoder_latency_bits(std::size_t window, std::size_t lifting,
                                   std::size_t nv, double rate) {
  return static_cast<double>(window) * static_cast<double>(lifting) *
         static_cast<double>(nv) * rate;
}

double block_code_latency_bits(std::size_t lifting, std::size_t nv,
                               double rate) {
  return static_cast<double>(lifting) * static_cast<double>(nv) * rate;
}

}  // namespace wi::fec
