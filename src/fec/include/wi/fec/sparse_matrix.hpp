#pragma once
/// \file sparse_matrix.hpp
/// \brief Sparse binary matrix / Tanner graph used by the LDPC codecs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wi::fec {

/// Sparse binary matrix stored as adjacency lists in both orientations
/// (rows = checks, columns = variables for parity-check use).
class SparseBinaryMatrix {
 public:
  SparseBinaryMatrix(std::size_t rows, std::size_t cols);

  /// Set entry (r, c) to 1. Duplicate insertions cancel over GF(2) and
  /// are rejected to keep the Tanner graph simple.
  void insert(std::size_t row, std::size_t col);

  [[nodiscard]] std::size_t rows() const { return row_adj_.size(); }
  [[nodiscard]] std::size_t cols() const { return col_adj_.size(); }
  [[nodiscard]] std::size_t nonzeros() const { return nonzeros_; }

  [[nodiscard]] const std::vector<std::uint32_t>& row(std::size_t r) const {
    return row_adj_[r];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col(std::size_t c) const {
    return col_adj_[c];
  }

  /// True when (row, col) is set (binary search; lists kept sorted).
  [[nodiscard]] bool contains(std::size_t row, std::size_t col) const;

  /// Syndrome H x over GF(2) for a hard-decision word x (0/1 per bit).
  [[nodiscard]] std::vector<std::uint8_t> syndrome(
      const std::vector<std::uint8_t>& word) const;

  /// True when H x = 0.
  [[nodiscard]] bool in_null_space(const std::vector<std::uint8_t>& word) const;

  /// Girth (shortest cycle length) of the Tanner graph, capped at
  /// `max_girth` for tractability; returns max_girth + 2 when no cycle
  /// up to the cap exists. A BFS from every variable node.
  [[nodiscard]] std::size_t girth(std::size_t max_girth = 12) const;

  /// Same cap, with a BFS from the listed variable nodes (columns) only.
  /// Every cycle length a BFS reports is at least the girth, and a BFS
  /// from a node on a shortest cycle reports that cycle's length. So
  /// the result equals girth(max_girth) whenever some shortest cycle
  /// passes through a start: for a graph with automorphisms, one start
  /// per orbit of cycles. The lifted codes pass one column per base
  /// column (see ldpc_code.cpp). Throws std::out_of_range for a start
  /// that is not a column.
  [[nodiscard]] std::size_t girth_from(std::span<const std::size_t> starts,
                                       std::size_t max_girth = 12) const;

 private:
  std::vector<std::vector<std::uint32_t>> row_adj_;
  std::vector<std::vector<std::uint32_t>> col_adj_;
  std::size_t nonzeros_ = 0;
};

}  // namespace wi::fec
