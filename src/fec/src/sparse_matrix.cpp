#include "wi/fec/sparse_matrix.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace wi::fec {

SparseBinaryMatrix::SparseBinaryMatrix(std::size_t rows, std::size_t cols)
    : row_adj_(rows), col_adj_(cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("SparseBinaryMatrix: empty dimensions");
  }
}

void SparseBinaryMatrix::insert(std::size_t row, std::size_t col) {
  if (row >= rows() || col >= cols()) {
    throw std::out_of_range("SparseBinaryMatrix::insert: index out of range");
  }
  auto& r = row_adj_[row];
  const auto it = std::lower_bound(r.begin(), r.end(), col);
  if (it != r.end() && *it == col) {
    throw std::invalid_argument(
        "SparseBinaryMatrix::insert: duplicate entry (parallel edge)");
  }
  r.insert(it, static_cast<std::uint32_t>(col));
  auto& c = col_adj_[col];
  c.insert(std::lower_bound(c.begin(), c.end(), row),
           static_cast<std::uint32_t>(row));
  ++nonzeros_;
}

bool SparseBinaryMatrix::contains(std::size_t row, std::size_t col) const {
  const auto& r = row_adj_[row];
  return std::binary_search(r.begin(), r.end(), col);
}

std::vector<std::uint8_t> SparseBinaryMatrix::syndrome(
    const std::vector<std::uint8_t>& word) const {
  if (word.size() != cols()) {
    throw std::invalid_argument("syndrome: word length mismatch");
  }
  std::vector<std::uint8_t> s(rows(), 0);
  for (std::size_t r = 0; r < rows(); ++r) {
    std::uint8_t parity = 0;
    for (const std::uint32_t c : row_adj_[r]) parity ^= word[c];
    s[r] = parity;
  }
  return s;
}

bool SparseBinaryMatrix::in_null_space(
    const std::vector<std::uint8_t>& word) const {
  if (word.size() != cols()) {
    throw std::invalid_argument("in_null_space: word length mismatch");
  }
  for (std::size_t r = 0; r < rows(); ++r) {
    std::uint8_t parity = 0;
    for (const std::uint32_t c : row_adj_[r]) parity ^= word[c];
    if (parity) return false;
  }
  return true;
}

std::size_t SparseBinaryMatrix::girth(std::size_t max_girth) const {
  std::vector<std::size_t> starts(cols());
  std::iota(starts.begin(), starts.end(), std::size_t{0});
  return girth_from(starts, max_girth);
}

std::size_t SparseBinaryMatrix::girth_from(std::span<const std::size_t> starts,
                                           std::size_t max_girth) const {
  // BFS from each start variable in the bipartite graph; a cycle shows
  // when BFS reaches a node by two distinct paths. Standard girth BFS
  // with parent-edge tracking.
  const std::size_t n_var = cols();
  const std::size_t n_chk = rows();
  const std::size_t total = n_var + n_chk;  // vars first, then checks
  std::size_t best = max_girth + 2;

  // dist is -1 outside the current BFS: each BFS resets just the nodes
  // it reached, which its queue lists. parent is set whenever dist is,
  // so it needs no reset.
  std::vector<int> dist(total, -1);
  std::vector<int> parent(total);
  std::vector<std::size_t> queue;
  for (const std::size_t start : starts) {
    if (start >= n_var) {
      throw std::out_of_range("SparseBinaryMatrix::girth_from: not a column");
    }
    queue.clear();
    dist[start] = 0;
    parent[start] = -1;
    queue.push_back(start);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t u = queue[head];
      if (static_cast<std::size_t>(2 * dist[u]) >= best) break;
      const bool is_var = u < n_var;
      const auto& neighbors = is_var ? col_adj_[u] : row_adj_[u - n_var];
      for (const std::uint32_t raw : neighbors) {
        const std::size_t v = is_var ? (raw + n_var) : raw;
        if (static_cast<int>(v) == parent[u]) continue;
        if (dist[v] == -1) {
          dist[v] = dist[u] + 1;
          parent[v] = static_cast<int>(u);
          queue.push_back(v);
        } else {
          // Cycle found: length = dist[u] + dist[v] + 1 (odd walks can't
          // happen in a bipartite graph, so this is a genuine cycle).
          const std::size_t cycle =
              static_cast<std::size_t>(dist[u] + dist[v] + 1);
          best = std::min(best, cycle);
        }
      }
    }
    for (const std::size_t node : queue) dist[node] = -1;
    if (best <= 4) break;  // cannot do better in a simple bipartite graph
  }
  return best;
}

}  // namespace wi::fec
