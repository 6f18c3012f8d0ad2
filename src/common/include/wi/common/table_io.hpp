#pragma once
/// \file table_io.hpp
/// \brief Table (de)serialization and tolerance comparison — the data
///        plane of the result store and the golden-result CI gate.
///
/// CSV follows RFC 4180: cells containing commas, quotes or newlines
/// are quoted with `""` escaping, so round trips are lossless even for
/// status-message cells. A headerless placeholder Table serializes to
/// an empty document and parses back as headerless. JSON uses
/// `{"headers": [...]|null, "rows": [[...]]}` with every cell kept as a
/// string (cells may hold non-finite values like "nan"/"inf", which
/// JSON numbers cannot represent).

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/common/table.hpp"

namespace wi {

/// RFC 4180 CSV rendering (header row first unless headerless).
void write_csv(std::ostream& os, const Table& table);
[[nodiscard]] std::string to_csv(const Table& table);

/// Parse CSV text produced by write_csv (or any RFC 4180 document with
/// a header row). Empty input yields the headerless placeholder.
/// Throws StatusError(kParseError) on ragged rows or malformed quoting.
[[nodiscard]] Table table_from_csv(std::string_view text);
[[nodiscard]] Table table_from_csv(std::istream& is);

/// JSON form: {"headers": [...]|null, "rows": [[...], ...]}.
[[nodiscard]] Json table_to_json(const Table& table);
[[nodiscard]] Table table_from_json(const Json& json);

/// Full-string numeric parse of a table cell; false for cells like
/// "12 cycles" or "-". Shared by compare_tables and the campaign
/// aggregator, so both agree on what counts as a numeric cell.
[[nodiscard]] bool parse_cell_number(const std::string& cell, double& value);

/// One cell-level disagreement found by compare_tables.
struct CellMismatch {
  std::size_t row = 0;     ///< data-row index (headers are row-less)
  std::size_t column = 0;
  std::string expected;
  std::string actual;
};

/// Outcome of a tolerance comparison.
struct TableDiff {
  bool match = false;
  /// Human-readable shape/header problem ("row count 3 != 5", ...);
  /// empty when only cell values disagree.
  std::string shape_error;
  std::vector<CellMismatch> mismatches;  ///< capped by max_mismatches
  std::size_t mismatch_count = 0;        ///< total, uncapped
};

/// Tolerances for compare_tables. Cells that parse fully as numbers are
/// compared with |a - e| <= max(abs_tol, rel_tol * max(|a|, |e|)); two
/// NaNs match, infinities match by sign. Everything else is compared as
/// exact strings (headers always exactly).
struct CompareOptions {
  double rel_tol = 1e-9;
  double abs_tol = 1e-12;
  std::size_t max_mismatches = 20;  ///< reporting cap
};

[[nodiscard]] TableDiff compare_tables(const Table& actual,
                                       const Table& expected,
                                       const CompareOptions& options = {});

/// Render a diff for error logs: the shape error or up to
/// `max_mismatches` "row R col C (header): expected E, got A" lines.
[[nodiscard]] std::string format_diff(const TableDiff& diff,
                                      const Table& expected);

/// Line-for-line comparison of text lines (a result's notes against a
/// golden's): empty when equal, else "N note mismatch(es)" followed by
/// up to `max_mismatches` "note I: expected 'E', got 'A'" lines in
/// format_diff's layout ("no line" stands in for a missing side).
[[nodiscard]] std::string diff_notes(const std::vector<std::string>& actual,
                                     const std::vector<std::string>& expected,
                                     std::size_t max_mismatches = 20);

}  // namespace wi
