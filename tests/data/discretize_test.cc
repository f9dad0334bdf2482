#include "data/discretize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/random.h"

namespace divexp {
namespace {

TEST(EqualWidthEdgesTest, SplitsRangeEvenly) {
  const auto edges = EqualWidthEdges({0.0, 10.0}, 4);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_DOUBLE_EQ(edges[0], 2.5);
  EXPECT_DOUBLE_EQ(edges[1], 5.0);
  EXPECT_DOUBLE_EQ(edges[2], 7.5);
}

TEST(EqualWidthEdgesTest, ConstantColumnGivesNoEdges) {
  EXPECT_TRUE(EqualWidthEdges({3.0, 3.0, 3.0}, 3).empty());
}

TEST(QuantileEdgesTest, BalancedBinsOnUniformData) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  const auto edges = QuantileEdges(values, 4);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_NEAR(edges[0], 250.0, 2.0);
  EXPECT_NEAR(edges[1], 500.0, 2.0);
  EXPECT_NEAR(edges[2], 749.0, 2.0);
}

TEST(QuantileEdgesTest, HeavyTiesCollapseEdges) {
  // 90% zeros: most quantile edges coincide at 0 and collapse.
  std::vector<double> values(90, 0.0);
  for (int i = 1; i <= 10; ++i) values.push_back(static_cast<double>(i));
  const auto edges = QuantileEdges(values, 4);
  EXPECT_LT(edges.size(), 3u);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(BinIndexTest, LeftOpenRightClosedBins) {
  const std::vector<double> edges = {1.0, 2.0};
  EXPECT_EQ(BinIndex(0.5, edges), 0);
  EXPECT_EQ(BinIndex(1.0, edges), 0);  // boundary goes left
  EXPECT_EQ(BinIndex(1.5, edges), 1);
  EXPECT_EQ(BinIndex(2.0, edges), 1);
  EXPECT_EQ(BinIndex(2.5, edges), 2);
}

TEST(DefaultBinLabelsTest, IntegralAndFractionalRendering) {
  const auto labels = DefaultBinLabels({3.0, 7.0}, /*integral=*/true);
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "<=3");
  EXPECT_EQ(labels[1], "(3-7]");
  EXPECT_EQ(labels[2], ">7");
  const auto frac = DefaultBinLabels({0.5}, /*integral=*/false);
  EXPECT_EQ(frac[0], "<=0.50");
}

TEST(DiscretizeColumnTest, CustomEdgesAndLabels) {
  Column c = Column::MakeDouble("age", {20.0, 30.0, 50.0});
  DiscretizeSpec spec;
  spec.column = "age";
  spec.strategy = BinStrategy::kCustom;
  spec.edges = {24.999, 45.0};
  spec.labels = {"<25", "25-45", ">45"};
  auto binned = DiscretizeColumn(c, spec);
  ASSERT_TRUE(binned.ok());
  EXPECT_EQ(binned->ValueString(0), "<25");
  EXPECT_EQ(binned->ValueString(1), "25-45");
  EXPECT_EQ(binned->ValueString(2), ">45");
}

TEST(DiscretizeColumnTest, MissingValuesStayMissing) {
  Column c = Column::MakeDouble("x", {1.0, std::nan("")});
  DiscretizeSpec spec;
  spec.column = "x";
  spec.strategy = BinStrategy::kCustom;
  spec.edges = {0.5};
  auto binned = DiscretizeColumn(c, spec);
  ASSERT_TRUE(binned.ok());
  EXPECT_FALSE(binned->IsMissing(0));
  EXPECT_TRUE(binned->IsMissing(1));
}

TEST(DiscretizeColumnTest, NonIncreasingCustomEdgesRejected) {
  Column c = Column::MakeDouble("x", {1.0});
  DiscretizeSpec spec;
  spec.column = "x";
  spec.strategy = BinStrategy::kCustom;
  spec.edges = {2.0, 2.0};
  EXPECT_FALSE(DiscretizeColumn(c, spec).ok());
}

TEST(DiscretizeColumnTest, WrongLabelCountRejected) {
  Column c = Column::MakeDouble("x", {1.0});
  DiscretizeSpec spec;
  spec.column = "x";
  spec.strategy = BinStrategy::kCustom;
  spec.edges = {2.0};
  spec.labels = {"only-one"};
  EXPECT_FALSE(DiscretizeColumn(c, spec).ok());
}

TEST(DiscretizeColumnTest, CategoricalInputRejected) {
  Column c = Column::MakeCategorical("c", {0}, {"v"});
  DiscretizeSpec spec;
  spec.column = "c";
  EXPECT_FALSE(DiscretizeColumn(c, spec).ok());
}

TEST(DiscretizeTest, ReplacesNamedColumnsOnly) {
  DataFrame df;
  ASSERT_TRUE(
      df.AddColumn(Column::MakeDouble("x", {1.0, 5.0, 9.0})).ok());
  ASSERT_TRUE(df.AddColumn(Column::MakeCategorical("c", {0, 1, 0},
                                                   {"a", "b"}))
                  .ok());
  DiscretizeSpec spec;
  spec.column = "x";
  spec.strategy = BinStrategy::kEqualWidth;
  spec.num_bins = 2;
  auto out = Discretize(df, {spec});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Get("x").is_categorical());
  EXPECT_EQ(out->Get("x").num_categories(), 2u);
  EXPECT_EQ(out->Get("c").ValueString(1), "b");  // untouched
}

TEST(DiscretizeAllTest, ConvertsEveryNumericColumn) {
  DataFrame df;
  ASSERT_TRUE(
      df.AddColumn(Column::MakeDouble("x", {1.0, 2.0, 3.0, 4.0})).ok());
  ASSERT_TRUE(df.AddColumn(Column::MakeInt("n", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(df.AddColumn(Column::MakeCategorical(
                               "c", {0, 0, 1, 1}, {"a", "b"}))
                  .ok());
  auto out = DiscretizeAll(df, BinStrategy::kQuantile, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Get("x").is_categorical());
  EXPECT_TRUE(out->Get("n").is_categorical());
  EXPECT_TRUE(out->Get("c").is_categorical());
}

// The definition QuantileEdges must match: nearest-rank quantiles read
// off a full sort, ties collapsed, an edge at the maximum dropped.
std::vector<double> SortedQuantileEdges(std::vector<double> sorted,
                                        int num_bins) {
  if (sorted.empty()) return {};
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> edges;
  for (int i = 1; i < num_bins; ++i) {
    const double q = static_cast<double>(i) / num_bins;
    const double e = sorted[static_cast<size_t>(q * (sorted.size() - 1))];
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  while (!edges.empty() && edges.back() >= sorted.back()) edges.pop_back();
  return edges;
}

TEST(QuantileEdgesTest, SelectionEqualsTheSortedDefinition) {
  Rng rng(31);
  for (size_t n = 1; n <= 300; ++n) {
    // Few distinct values, so ties are heavy and land on the ranks.
    const auto distinct =
        static_cast<int64_t>(1 + rng.Below(std::min<size_t>(n, 20)));
    std::vector<double> values(n);
    for (double& v : values) {
      v = static_cast<double>(rng.Int(-distinct, distinct)) / 2;
    }
    for (int bins = 2; bins <= 10; ++bins) {
      EXPECT_EQ(QuantileEdges(values, bins),
                SortedQuantileEdges(values, bins))
          << "n=" << n << " bins=" << bins;
    }
  }
}

TEST(DiscretizePropertyTest, EveryValueLandsInItsBin) {
  // Property: for quantile binning, bin index is monotone in the value.
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(std::sin(i * 0.7) * 100.0);
  }
  const auto edges = QuantileEdges(values, 5);
  int last_bin = -1;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) {
    const int b = BinIndex(v, edges);
    EXPECT_GE(b, last_bin);
    last_bin = b;
  }
  EXPECT_EQ(last_bin, static_cast<int>(edges.size()));
}

}  // namespace
}  // namespace divexp
