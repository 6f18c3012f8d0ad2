#include "wi/fec/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace wi::fec {
namespace {

TEST(SparseMatrix, InsertAndContains) {
  SparseBinaryMatrix m(3, 4);
  m.insert(0, 1);
  m.insert(2, 3);
  EXPECT_TRUE(m.contains(0, 1));
  EXPECT_TRUE(m.contains(2, 3));
  EXPECT_FALSE(m.contains(0, 0));
  EXPECT_EQ(m.nonzeros(), 2u);
}

TEST(SparseMatrix, AdjacencySorted) {
  SparseBinaryMatrix m(2, 5);
  m.insert(0, 4);
  m.insert(0, 1);
  m.insert(0, 3);
  const auto& row = m.row(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(row[0] < row[1] && row[1] < row[2]);
}

TEST(SparseMatrix, RejectsDuplicatesAndOutOfRange) {
  SparseBinaryMatrix m(2, 2);
  m.insert(0, 0);
  EXPECT_THROW(m.insert(0, 0), std::invalid_argument);
  EXPECT_THROW(m.insert(2, 0), std::out_of_range);
  EXPECT_THROW(m.insert(0, 2), std::out_of_range);
  EXPECT_THROW(SparseBinaryMatrix(0, 1), std::invalid_argument);
}

TEST(SparseMatrix, SyndromeComputation) {
  // H = [1 1 0; 0 1 1].
  SparseBinaryMatrix h(2, 3);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(1, 1);
  h.insert(1, 2);
  EXPECT_EQ(h.syndrome({1, 1, 0}), (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(h.syndrome({1, 1, 1}), (std::vector<std::uint8_t>{0, 0}));
  EXPECT_TRUE(h.in_null_space({1, 1, 1}));
  EXPECT_FALSE(h.in_null_space({1, 0, 0}));
  EXPECT_TRUE(h.in_null_space({0, 0, 0}));
}

TEST(SparseMatrix, SyndromeRejectsWrongLength) {
  SparseBinaryMatrix h(1, 3);
  EXPECT_THROW(h.syndrome({1, 0}), std::invalid_argument);
  EXPECT_THROW((void)h.in_null_space({1, 0, 0, 1}), std::invalid_argument);
}

TEST(SparseMatrix, GirthOfFourCycle) {
  // Two checks sharing two variables: the classic 4-cycle.
  SparseBinaryMatrix h(2, 2);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(1, 0);
  h.insert(1, 1);
  EXPECT_EQ(h.girth(), 4u);
}

TEST(SparseMatrix, GirthOfSixCycle) {
  // Three checks, three variables in a ring: girth 6.
  SparseBinaryMatrix h(3, 3);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(1, 1);
  h.insert(1, 2);
  h.insert(2, 2);
  h.insert(2, 0);
  EXPECT_EQ(h.girth(), 6u);
}

TEST(SparseMatrix, GirthOfTreeIsCapPlusTwo) {
  // A star (one check, many variables) has no cycle.
  SparseBinaryMatrix h(1, 5);
  for (std::size_t c = 0; c < 5; ++c) h.insert(0, c);
  EXPECT_EQ(h.girth(12), 14u);
}

TEST(SparseMatrix, GirthFromSeesOnlyCyclesItsStartsReach) {
  // A 4-cycle on columns 0-1 and a separate tree on columns 2-3.
  SparseBinaryMatrix h(3, 4);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(1, 0);
  h.insert(1, 1);
  h.insert(2, 2);
  h.insert(2, 3);
  const std::vector<std::size_t> on_cycle = {1};
  const std::vector<std::size_t> in_tree = {2, 3};
  const std::vector<std::size_t> not_a_column = {4};
  EXPECT_EQ(h.girth(), 4u);
  EXPECT_EQ(h.girth_from(on_cycle), 4u);
  EXPECT_EQ(h.girth_from(in_tree, 12), 14u);
  EXPECT_THROW((void)h.girth_from(not_a_column), std::out_of_range);
}

}  // namespace
}  // namespace wi::fec
