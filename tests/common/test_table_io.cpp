#include "wi/common/table_io.hpp"

#include <gtest/gtest.h>

#include "wi/common/status.hpp"

namespace wi {
namespace {

[[nodiscard]] Table sample_table() {
  Table table({"name", "value", "note"});
  table.add_row({"a", "1.25", "plain"});
  table.add_row({"b", "nan", "not-a-number cell"});
  table.add_row({"c", "inf", "positive infinity"});
  table.add_row({"d", "-inf", "comma, in note"});
  table.add_row({"e", "2", "quote \" and\nnewline"});
  return table;
}

TEST(TableCsv, RoundTripsQuotingAndNonFinite) {
  const Table table = sample_table();
  const Table parsed = table_from_csv(to_csv(table));
  EXPECT_EQ(parsed, table);
}

TEST(TableCsv, HeaderlessRoundTripsAsEmptyDocument) {
  const Table headerless;
  EXPECT_EQ(to_csv(headerless), "");
  EXPECT_EQ(table_from_csv(""), headerless);
  EXPECT_EQ(table_from_csv("  \n"), Table({"  "}));  // content, not empty
}

TEST(TableCsv, ParsesCrlfAndMissingFinalNewline) {
  const Table a = table_from_csv("x,y\r\n1,2\r\n");
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a.cell(0, 1), "2");
  const Table b = table_from_csv("x,y\n1,");
  EXPECT_EQ(b.cell(0, 0), "1");
  EXPECT_EQ(b.cell(0, 1), "");
}

TEST(TableCsv, RejectsRaggedAndMalformed) {
  EXPECT_THROW((void)table_from_csv("a,b\n1\n"), StatusError);
  EXPECT_THROW((void)table_from_csv("a\n\"unterminated\n"), StatusError);
  EXPECT_THROW((void)table_from_csv("a\nx\"y\n"), StatusError);
}

TEST(TableJson, RoundTrips) {
  const Table table = sample_table();
  EXPECT_EQ(table_from_json(table_to_json(table)), table);
}

TEST(TableJson, HeaderlessRoundTrips) {
  const Table headerless;
  const Json json = table_to_json(headerless);
  EXPECT_TRUE(json.at("headers").is_null());
  EXPECT_EQ(table_from_json(json), headerless);
}

TEST(TableJson, RejectsRowsOnHeaderless) {
  EXPECT_THROW((void)table_from_json(
                   Json::parse(R"({"headers":null,"rows":[["x"]]})")),
               StatusError);
}

TEST(CompareTables, ExactAndTolerantMatches) {
  Table golden({"x", "y"});
  golden.add_row({"1.000", "text"});
  Table actual({"x", "y"});
  actual.add_row({"1.0000004", "text"});
  EXPECT_FALSE(compare_tables(actual, golden, {}).match);  // default tight
  CompareOptions loose;
  loose.rel_tol = 1e-5;
  EXPECT_TRUE(compare_tables(actual, golden, loose).match);
}

TEST(CompareTables, NanMatchesNanAndInfBySign) {
  Table golden({"v"});
  golden.add_row({"nan"});
  golden.add_row({"inf"});
  Table actual({"v"});
  actual.add_row({"nan"});
  actual.add_row({"-inf"});
  const TableDiff diff = compare_tables(actual, golden, {});
  EXPECT_FALSE(diff.match);
  ASSERT_EQ(diff.mismatch_count, 1u);  // nan == nan, -inf != inf
  EXPECT_EQ(diff.mismatches[0].row, 1u);
}

TEST(CompareTables, ReportsShapeErrors) {
  Table golden({"x"});
  golden.add_row({"1"});
  const TableDiff header_diff = compare_tables(Table({"y"}), golden, {});
  EXPECT_FALSE(header_diff.match);
  EXPECT_FALSE(header_diff.shape_error.empty());
  const TableDiff row_diff = compare_tables(Table({"x"}), golden, {});
  EXPECT_FALSE(row_diff.match);
  EXPECT_NE(row_diff.shape_error.find("row count"), std::string::npos);
}

TEST(CompareTables, NonNumericCellsCompareExactly) {
  Table golden({"s"});
  golden.add_row({"12 cycles"});
  Table actual({"s"});
  actual.add_row({"12  cycles"});
  EXPECT_FALSE(compare_tables(actual, golden, {}).match);
  EXPECT_TRUE(compare_tables(golden, golden, {}).match);
}

TEST(CompareTables, FormatDiffListsMismatches) {
  Table golden({"a", "b"});
  golden.add_row({"1", "2"});
  Table actual({"a", "b"});
  actual.add_row({"1", "3"});
  const TableDiff diff = compare_tables(actual, golden, {});
  const std::string text = format_diff(diff, golden);
  EXPECT_NE(text.find("row 0 col 1 (b)"), std::string::npos);
  EXPECT_NE(text.find("expected '2', got '3'"), std::string::npos);
}

TEST(DiffNotes, ReportsChangedMissingAndExtraLines) {
  const std::vector<std::string> golden = {"topology: A", "fit: 1.0"};
  EXPECT_EQ(diff_notes(golden, golden), "");
  EXPECT_EQ(diff_notes({}, {}), "");

  const std::string changed = diff_notes({"topology: A", "fit: 2.0"}, golden);
  EXPECT_NE(changed.find("1 note mismatch\n"), std::string::npos) << changed;
  EXPECT_NE(changed.find("note 1: expected 'fit: 1.0', got 'fit: 2.0'"),
            std::string::npos)
      << changed;

  const std::string missing = diff_notes({"topology: A"}, golden);
  EXPECT_NE(missing.find("note 1: expected 'fit: 1.0', got no line"),
            std::string::npos)
      << missing;
  const std::string extra =
      diff_notes({"topology: A", "fit: 1.0", "new"}, golden);
  EXPECT_NE(extra.find("note 2: expected no line, got 'new'"),
            std::string::npos)
      << extra;

  const std::string capped = diff_notes({"x", "y", "z"}, {}, 1);
  EXPECT_NE(capped.find("3 note mismatches"), std::string::npos) << capped;
  EXPECT_NE(capped.find("... and 2 more"), std::string::npos) << capped;
  EXPECT_EQ(capped.find("note 1:"), std::string::npos) << capped;
}

}  // namespace
}  // namespace wi
