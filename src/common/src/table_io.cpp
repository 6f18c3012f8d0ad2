#include "wi/common/table_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "wi/common/status.hpp"

namespace wi {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw StatusError(Status(StatusCode::kParseError, message));
}

[[nodiscard]] bool needs_quoting(const std::string& cell) {
  for (const char c : cell) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void write_cell(std::ostream& os, const std::string& cell) {
  if (!needs_quoting(cell)) {
    os << cell;
    return;
  }
  os << '"';
  for (const char c : cell) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

void write_row(std::ostream& os, const std::vector<std::string>& row) {
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (c != 0) os << ',';
    write_cell(os, row[c]);
  }
  os << '\n';
}

/// Split an RFC 4180 document into records of fields. Handles quoted
/// fields with embedded separators/newlines and CRLF line endings.
[[nodiscard]] std::vector<std::vector<std::string>> parse_records(
    std::string_view text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // current field consumed a char or quote
  std::size_t i = 0;
  const auto end_field = [&]() {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_record = [&]() {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field += c;
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (field_started) {
          fail("csv: quote inside unquoted field at offset " +
               std::to_string(i));
        }
        in_quotes = true;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        ++i;
        if (i < text.size() && text[i] == '\n') break;  // handled as \n
        [[fallthrough]];
      case '\n':
        if (c == '\n') ++i;
        end_record();
        break;
      default:
        field += c;
        field_started = true;
        ++i;
    }
  }
  if (in_quotes) fail("csv: unterminated quoted field");
  // Flush a final record not terminated by a newline ("a,b<EOF>" and
  // the dangling empty field of "a,<EOF>" both included).
  if (field_started || !record.empty()) end_record();
  return records;
}

[[nodiscard]] bool cells_match(const std::string& actual,
                               const std::string& expected,
                               const CompareOptions& options) {
  if (actual == expected) return true;
  double a = 0.0;
  double e = 0.0;
  if (!parse_cell_number(actual, a) || !parse_cell_number(expected, e)) {
    return false;
  }
  if (std::isnan(a) || std::isnan(e)) return std::isnan(a) && std::isnan(e);
  if (std::isinf(a) || std::isinf(e)) return a == e;
  const double scale = std::max(std::fabs(a), std::fabs(e));
  return std::fabs(a - e) <=
         std::max(options.abs_tol, options.rel_tol * scale);
}

}  // namespace

bool parse_cell_number(const std::string& cell, double& value) {
  if (cell.empty()) return false;
  const char* begin = cell.c_str();
  char* end = nullptr;
  value = std::strtod(begin, &end);
  return end == begin + cell.size();
}

void write_csv(std::ostream& os, const Table& table) {
  if (table.columns() == 0) return;  // headerless placeholder
  write_row(os, table.headers());
  for (std::size_t r = 0; r < table.rows(); ++r) write_row(os, table.row(r));
}

std::string to_csv(const Table& table) {
  std::ostringstream oss;
  write_csv(oss, table);
  return oss.str();
}

Table table_from_csv(std::string_view text) {
  const auto records = parse_records(text);
  if (records.empty()) return Table();  // headerless placeholder
  Table table(records.front());
  for (std::size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != records.front().size()) {
      fail("csv: row " + std::to_string(r) + " has " +
           std::to_string(records[r].size()) + " fields, header has " +
           std::to_string(records.front().size()));
    }
    table.add_row(records[r]);
  }
  return table;
}

Table table_from_csv(std::istream& is) {
  std::ostringstream oss;
  oss << is.rdbuf();
  return table_from_csv(oss.str());
}

Json table_to_json(const Table& table) {
  Json json = Json::object();
  if (table.columns() == 0) {
    json.set("headers", Json());
  } else {
    Json headers = Json::array();
    for (const auto& h : table.headers()) headers.push_back(Json(h));
    json.set("headers", std::move(headers));
  }
  Json rows = Json::array();
  for (std::size_t r = 0; r < table.rows(); ++r) {
    Json row = Json::array();
    for (const auto& cell : table.row(r)) row.push_back(Json(cell));
    rows.push_back(std::move(row));
  }
  json.set("rows", std::move(rows));
  return json;
}

Table table_from_json(const Json& json) {
  const Json& headers = json.at("headers");
  if (headers.is_null()) {
    if (!json.at("rows").as_array().empty()) {
      fail("table json: headerless table cannot carry rows");
    }
    return Table();
  }
  std::vector<std::string> header_cells;
  for (const auto& h : headers.as_array()) header_cells.push_back(h.as_string());
  Table table(header_cells);
  for (const auto& row : json.at("rows").as_array()) {
    std::vector<std::string> cells;
    for (const auto& cell : row.as_array()) cells.push_back(cell.as_string());
    if (cells.size() != header_cells.size()) {
      fail("table json: row arity mismatch");
    }
    table.add_row(std::move(cells));
  }
  return table;
}

TableDiff compare_tables(const Table& actual, const Table& expected,
                         const CompareOptions& options) {
  TableDiff diff;
  if (actual.headers() != expected.headers()) {
    diff.shape_error = "header mismatch: expected [" +
                       (expected.columns() ? expected.headers()[0] : "") +
                       ", ...] (" + std::to_string(expected.columns()) +
                       " columns), got " + std::to_string(actual.columns()) +
                       " columns";
    return diff;
  }
  if (actual.rows() != expected.rows()) {
    diff.shape_error = "row count mismatch: expected " +
                       std::to_string(expected.rows()) + ", got " +
                       std::to_string(actual.rows());
    return diff;
  }
  for (std::size_t r = 0; r < expected.rows(); ++r) {
    for (std::size_t c = 0; c < expected.columns(); ++c) {
      if (cells_match(actual.cell(r, c), expected.cell(r, c), options)) {
        continue;
      }
      ++diff.mismatch_count;
      if (diff.mismatches.size() < options.max_mismatches) {
        diff.mismatches.push_back(
            {r, c, expected.cell(r, c), actual.cell(r, c)});
      }
    }
  }
  diff.match = diff.mismatch_count == 0;
  return diff;
}

std::string format_diff(const TableDiff& diff, const Table& expected) {
  if (diff.match) return "tables match";
  if (!diff.shape_error.empty()) return diff.shape_error;
  std::string out = std::to_string(diff.mismatch_count) + " cell mismatch" +
                    (diff.mismatch_count == 1 ? "" : "es");
  for (const auto& m : diff.mismatches) {
    out += "\n  row " + std::to_string(m.row) + " col " +
           std::to_string(m.column);
    if (m.column < expected.columns()) {
      out += " (" + expected.headers()[m.column] + ")";
    }
    out += ": expected '" + m.expected + "', got '" + m.actual + "'";
  }
  if (diff.mismatch_count > diff.mismatches.size()) {
    out += "\n  ... and " +
           std::to_string(diff.mismatch_count - diff.mismatches.size()) +
           " more";
  }
  return out;
}

std::string diff_notes(const std::vector<std::string>& actual,
                       const std::vector<std::string>& expected,
                       std::size_t max_mismatches) {
  const auto quoted = [](const std::vector<std::string>& lines,
                         std::size_t i) {
    return i < lines.size() ? "'" + lines[i] + "'" : std::string("no line");
  };
  std::size_t count = 0;
  std::string listed;
  const std::size_t lines = std::max(actual.size(), expected.size());
  for (std::size_t i = 0; i < lines; ++i) {
    if (i < actual.size() && i < expected.size() && actual[i] == expected[i]) {
      continue;
    }
    if (++count > max_mismatches) continue;
    listed += "\n  note " + std::to_string(i) + ": expected " +
              quoted(expected, i) + ", got " + quoted(actual, i);
  }
  if (count == 0) return {};
  std::string out = std::to_string(count) + " note mismatch" +
                    (count == 1 ? "" : "es") + listed;
  if (count > max_mismatches) {
    out += "\n  ... and " + std::to_string(count - max_mismatches) + " more";
  }
  return out;
}

}  // namespace wi
