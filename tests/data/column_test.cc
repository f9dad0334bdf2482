#include "data/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

namespace divexp {
namespace {

TEST(ColumnTest, DoubleColumnBasics) {
  Column c = Column::MakeDouble("x", {1.5, 2.5, 3.5});
  EXPECT_EQ(c.name(), "x");
  EXPECT_EQ(c.type(), ColumnType::kDouble);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c.doubles()[1], 2.5);
  EXPECT_DOUBLE_EQ(c.Numeric(2), 3.5);
  EXPECT_FALSE(c.IsMissing(0));
}

TEST(ColumnTest, DoubleNaNIsMissing) {
  Column c = Column::MakeDouble("x", {1.0, std::nan(""), 3.0});
  EXPECT_FALSE(c.IsMissing(0));
  EXPECT_TRUE(c.IsMissing(1));
  EXPECT_EQ(c.ValueString(1), "");
}

TEST(ColumnTest, IntColumnBasics) {
  Column c = Column::MakeInt("n", {-1, 0, 42});
  EXPECT_EQ(c.type(), ColumnType::kInt);
  EXPECT_EQ(c.ints()[2], 42);
  EXPECT_EQ(c.ValueString(2), "42");
  EXPECT_DOUBLE_EQ(c.Numeric(0), -1.0);
}

TEST(ColumnTest, StringColumnEmptyIsMissing) {
  Column c = Column::MakeString("s", {"a", "", "c"});
  EXPECT_TRUE(c.IsMissing(1));
  EXPECT_FALSE(c.IsMissing(0));
  EXPECT_EQ(c.ValueString(2), "c");
}

TEST(ColumnTest, CategoricalBasics) {
  Column c = Column::MakeCategorical("cat", {0, 1, 0, -1},
                                     {"red", "blue"});
  EXPECT_TRUE(c.is_categorical());
  EXPECT_EQ(c.num_categories(), 2u);
  EXPECT_EQ(c.ValueString(0), "red");
  EXPECT_EQ(c.ValueString(1), "blue");
  EXPECT_TRUE(c.IsMissing(3));
}

TEST(ColumnTest, CategoricalFromStringsFirstAppearanceOrder) {
  const std::vector<std::string_view> values = {"b", "a", "b",
                                                "",  "c", "a"};
  Column c = Column::CategoricalFromStrings("cat", values);
  ASSERT_EQ(c.num_categories(), 3u);
  EXPECT_EQ(c.categories()[0], "b");
  EXPECT_EQ(c.categories()[1], "a");
  EXPECT_EQ(c.categories()[2], "c");
  EXPECT_EQ(c.codes()[0], 0);
  EXPECT_EQ(c.codes()[1], 1);
  EXPECT_EQ(c.codes()[2], 0);
  EXPECT_EQ(c.codes()[3], -1);
  EXPECT_EQ(c.codes()[4], 2);
}

TEST(ColumnTest, TakeSelectsRowsInOrderWithRepeats) {
  Column c = Column::MakeInt("n", {10, 20, 30});
  Column t = c.Take({2, 0, 2});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.ints()[0], 30);
  EXPECT_EQ(t.ints()[1], 10);
  EXPECT_EQ(t.ints()[2], 30);
}

TEST(ColumnTest, TakeCategoricalKeepsDictionary) {
  Column c = Column::MakeCategorical("cat", {0, 1, 1}, {"x", "y"});
  Column t = c.Take({1});
  EXPECT_EQ(t.num_categories(), 2u);
  EXPECT_EQ(t.ValueString(0), "y");
}

TEST(ColumnTest, ValueStringTrimsTrailingZeros) {
  Column c = Column::MakeDouble("x", {2.0, 2.5});
  EXPECT_EQ(c.ValueString(0), "2");
  EXPECT_EQ(c.ValueString(1), "2.5");
}

TEST(ColumnTypeNameTest, AllNamesDistinct) {
  EXPECT_STREQ(ColumnTypeName(ColumnType::kDouble), "double");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kInt), "int");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kString), "string");
  EXPECT_STREQ(ColumnTypeName(ColumnType::kCategorical), "categorical");
}

}  // namespace
}  // namespace divexp
