/// \file ldpc_code_legacy.cpp
/// \brief Frozen LDPC code construction; see baseline_kernels.hpp.
///
/// Verbatim copies of src/fec/src/ldpc_code.cpp's QcLdpcBlockCode and
/// LdpcConvolutionalCode constructors and of
/// SparseBinaryMatrix::girth as they stood before the girth search
/// started from one column per base column (modulo namespace, free
/// functions that return H in place of constructors that store it, and
/// the names that change brings).

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <vector>

#include "baseline_kernels.hpp"
#include "wi/common/rng.hpp"

namespace wi::perf_baseline {

using fec::BaseMatrix;
using fec::EdgeSpreading;
using fec::ShiftSet;
using fec::SparseBinaryMatrix;

std::size_t girth_all_starts(const SparseBinaryMatrix& h,
                             std::size_t max_girth) {
  // BFS from every variable node in the bipartite graph; the shortest
  // cycle through a node v is found when BFS reaches a node by two
  // distinct paths. Standard girth BFS with parent-edge tracking.
  const std::size_t n_var = h.cols();
  const std::size_t n_chk = h.rows();
  const std::size_t total = n_var + n_chk;  // vars first, then checks
  std::size_t best = max_girth + 2;

  std::vector<int> dist(total);
  std::vector<int> parent(total);
  for (std::size_t start = 0; start < n_var; ++start) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(parent.begin(), parent.end(), -1);
    std::queue<std::size_t> queue;
    dist[start] = 0;
    queue.push(start);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      if (static_cast<std::size_t>(2 * dist[u]) >= best) break;
      const bool is_var = u < n_var;
      const auto& neighbors = is_var ? h.col(u) : h.row(u - n_var);
      for (const std::uint32_t raw : neighbors) {
        const std::size_t v = is_var ? (raw + n_var) : raw;
        if (static_cast<int>(v) == parent[u]) continue;
        if (dist[v] == -1) {
          dist[v] = dist[u] + 1;
          parent[v] = static_cast<int>(u);
          queue.push(v);
        } else {
          // Cycle found: length = dist[u] + dist[v] + 1 (odd walks can't
          // happen in a bipartite graph, so this is a genuine cycle).
          const std::size_t cycle =
              static_cast<std::size_t>(dist[u] + dist[v] + 1);
          best = std::min(best, cycle);
        }
      }
    }
    if (best <= 4) break;  // cannot do better in a simple bipartite graph
  }
  return best;
}

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

SparseBinaryMatrix qc_block_parity_check(const BaseMatrix& base,
                                         std::size_t lifting,
                                         std::uint64_t seed,
                                         int girth_trials) {
  if (lifting == 0) throw std::invalid_argument("QcLdpcBlockCode: N >= 1");
  SparseBinaryMatrix h(1, 1);
  Rng rng(seed);
  std::size_t best_girth = 0;
  for (int trial = 0; trial < std::max(1, girth_trials); ++trial) {
    const auto table = draw_shift_table(base, lifting, rng);
    SparseBinaryMatrix candidate = lift_block(base, lifting, table);
    const std::size_t g = girth_all_starts(candidate);
    if (g > best_girth) {
      best_girth = g;
      h = std::move(candidate);
    }
  }
  return h;
}

SparseBinaryMatrix ldpc_cc_parity_check(const EdgeSpreading& spreading,
                                        std::size_t lifting,
                                        std::size_t termination,
                                        std::uint64_t seed,
                                        int girth_trials) {
  if (lifting == 0 || termination == 0) {
    throw std::invalid_argument("LdpcConvolutionalCode: N, L >= 1");
  }
  const std::size_t mcc = spreading.mcc();
  const std::size_t nc = spreading.nc();
  const std::size_t nv = spreading.nv();
  SparseBinaryMatrix h(1, 1);
  Rng rng(seed);
  const std::size_t rows = (termination + mcc) * nc * lifting;
  const std::size_t cols = termination * nv * lifting;

  std::size_t best_girth = 0;
  for (int trial = 0; trial < std::max(1, girth_trials); ++trial) {
    // One shift table per component; reused at every time instant
    // (time-invariant convolutional lifting).
    std::vector<std::vector<ShiftSet>> tables;
    tables.reserve(mcc + 1);
    for (std::size_t i = 0; i <= mcc; ++i) {
      tables.push_back(draw_shift_table(spreading.component(i), lifting, rng));
    }
    SparseBinaryMatrix candidate(rows, cols);
    for (std::size_t t = 0; t < termination; ++t) {
      for (std::size_t i = 0; i <= mcc; ++i) {
        const BaseMatrix& b = spreading.component(i);
        for (std::size_t r = 0; r < nc; ++r) {
          for (std::size_t c = 0; c < nv; ++c) {
            const auto& shifts = tables[i][r * b.cols() + c];
            if (!shifts.empty()) {
              place_circulants(candidate, (t + i) * nc + r, t * nv + c,
                               shifts, lifting);
            }
          }
        }
      }
    }
    const std::size_t g = girth_all_starts(candidate);
    if (g > best_girth) {
      best_girth = g;
      h = std::move(candidate);
    }
    if (best_girth >= 8) break;  // good enough for BP
  }
  return h;
}

}  // namespace wi::perf_baseline
