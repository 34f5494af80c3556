//===- tests/support/TextTableTest.cpp - Table renderer unit tests --------===//

#include "support/TextTable.h"

#include <gtest/gtest.h>

using namespace sbi;

TEST(TextTableTest, HeaderAndRow) {
  TextTable Table;
  Table.setHeader({"Name", "Count"});
  Table.addRow({"foo", "42"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("foo"), std::string::npos);
  EXPECT_NE(Out.find("42"), std::string::npos);
  // Separator line under the header.
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TextTableTest, ColumnsAlign) {
  TextTable Table;
  Table.setHeader({"A", "B"});
  Table.addRow({"short", "1"});
  Table.addRow({"a-much-longer-cell", "2"});
  std::string Out = Table.render();
  // Every line should place column B at the same offset; check that both
  // data lines have their digit at the same column.
  size_t FirstLineStart = Out.find("short");
  size_t SecondLineStart = Out.find("a-much-longer-cell");
  ASSERT_NE(FirstLineStart, std::string::npos);
  ASSERT_NE(SecondLineStart, std::string::npos);
  size_t OneAt = Out.find('1', FirstLineStart) - FirstLineStart;
  size_t TwoAt = Out.find('2', SecondLineStart) - SecondLineStart;
  EXPECT_EQ(OneAt, TwoAt);
}

TEST(TextTableTest, NumericCellsRightAligned) {
  TextTable Table;
  Table.setHeader({"N"});
  Table.addRow({"7"});
  Table.addRow({"1234"});
  std::string Out = Table.render();
  // "7" should be padded on the left to width 4.
  EXPECT_NE(Out.find("   7"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable Table;
  Table.setHeader({"A", "B", "C"});
  Table.addRow({"only-one"});
  EXPECT_NO_THROW({ std::string Out = Table.render(); });
}

TEST(TextTableTest, SeparatorRows) {
  TextTable Table;
  Table.setHeader({"Wide"});
  Table.addRow({"x"});
  Table.addSeparator();
  Table.addRow({"y"});
  std::string Out = Table.render();
  // Two separators: one under the header, one explicit.
  size_t First = Out.find("---");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("---", First + 3), std::string::npos);
}

TEST(TextTableTest, NoTrailingWhitespace) {
  TextTable Table;
  Table.setHeader({"A", "B"});
  Table.addRow({"x", "y"});
  std::string Out = Table.render();
  size_t Pos = 0;
  while ((Pos = Out.find('\n', Pos)) != std::string::npos) {
    if (Pos > 0) {
      EXPECT_NE(Out[Pos - 1], ' ') << "trailing space before newline";
    }
    ++Pos;
  }
}

TEST(TextTableTest, NumRows) {
  TextTable Table;
  EXPECT_EQ(Table.numRows(), 0u);
  Table.addRow({"x"});
  Table.addRow({"y"});
  EXPECT_EQ(Table.numRows(), 2u);
}
