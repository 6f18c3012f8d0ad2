#pragma once
/// \file table.hpp
/// \brief Minimal fixed-width / CSV table printer: the result tables
///        behind the paper's tables and figure series.

#include <iosfwd>
#include <string>
#include <vector>

namespace wi {

/// Column-oriented table: set headers once, append rows, print aligned
/// text or CSV. Cells are stored as strings; format_cell helpers convert
/// numerics with a fixed precision.
class Table {
 public:
  /// Headerless placeholder (e.g. the table of a failed scenario run);
  /// add_row on it throws until headers are assigned.
  Table() = default;

  explicit Table(std::vector<std::string> headers);

  /// Append one row; the arity must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Number of columns.
  [[nodiscard]] std::size_t columns() const { return headers_.size(); }

  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }

  /// Cell (row, column); bounds-checked.
  [[nodiscard]] const std::string& cell(std::size_t row,
                                        std::size_t column) const {
    return rows_.at(row).at(column);
  }

  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_.at(i);
  }

  /// Exact (cell-for-cell) comparison — the reproducibility contract of
  /// the parallel sweep runner.
  [[nodiscard]] bool operator==(const Table&) const = default;

  /// Fixed-width aligned rendering with a header separator.
  void print(std::ostream& os) const;

  /// Comma-separated rendering (no quoting; values must not contain ',').
  void print_csv(std::ostream& os) const;

  /// Format a double with the given number of decimals.
  [[nodiscard]] static std::string num(double value, int decimals = 3);

  /// Format an integer.
  [[nodiscard]] static std::string num(long long value);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace wi
