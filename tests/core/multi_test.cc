#include "core/multi.h"

#include <gtest/gtest.h>

#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

constexpr Metric kAllMetrics[] = {
    Metric::kFalsePositiveRate,      Metric::kFalseNegativeRate,
    Metric::kErrorRate,              Metric::kAccuracy,
    Metric::kTruePositiveRate,       Metric::kTrueNegativeRate,
    Metric::kPositivePredictiveValue, Metric::kFalseDiscoveryRate,
    Metric::kFalseOmissionRate,      Metric::kNegativePredictiveValue,
    Metric::kPositiveRate,           Metric::kPredictedPositiveRate,
};

struct RandomLabeled {
  EncodedDataset dataset;
  std::vector<int> preds;
  std::vector<int> truths;
};

RandomLabeled MakeRandomLabeled(uint64_t seed, size_t rows = 300) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells(rows, std::vector<int>(3));
  RandomLabeled out;
  for (size_t r = 0; r < rows; ++r) {
    for (auto& c : cells[r]) c = static_cast<int>(rng.Below(3));
    out.preds.push_back(rng.Bernoulli(0.45) ? 1 : 0);
    out.truths.push_back(
        rng.Bernoulli(0.3 + 0.1 * cells[r][0]) ? 1 : 0);
  }
  out.dataset = MakeEncoded(cells, {3, 3, 3});
  return out;
}

TEST(ProjectOutcomeTest, MatchesPerInstanceDefinition) {
  // Projecting counts must agree with tallying EvalOutcome per
  // instance, for every confusion cell and every metric.
  const ConfusionCounts c{3, 5, 7, 11};
  for (Metric metric : kAllMetrics) {
    OutcomeCounts expected;
    auto add = [&](Outcome o, uint64_t n) {
      switch (o) {
        case Outcome::kTrue:
          expected.t += n;
          break;
        case Outcome::kFalse:
          expected.f += n;
          break;
        case Outcome::kBottom:
          expected.bot += n;
          break;
      }
    };
    add(EvalOutcome(metric, true, true), c.tp);
    add(EvalOutcome(metric, true, false), c.fp);
    add(EvalOutcome(metric, false, false), c.tn);
    add(EvalOutcome(metric, false, true), c.fn);
    EXPECT_EQ(ProjectOutcome(metric, c), expected)
        << MetricName(metric);
  }
}

TEST(MultiExplorerTest, AgreesWithSingleMetricExplorations) {
  const RandomLabeled data = MakeRandomLabeled(3);
  ExplorerOptions opts;
  opts.min_support = 0.03;
  MultiExplorer multi(opts);
  auto mtable = multi.Explore(data.dataset, data.preds, data.truths);
  ASSERT_TRUE(mtable.ok());

  DivergenceExplorer single(opts);
  for (Metric metric : kAllMetrics) {
    auto expected =
        single.Explore(data.dataset, data.preds, data.truths, metric);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(mtable->size(), expected->size()) << MetricName(metric);
    for (size_t i = 0; i < expected->size(); ++i) {
      const PatternRow& row = expected->row(i);
      auto div = mtable->Divergence(metric, row.items);
      ASSERT_TRUE(div.ok());
      EXPECT_NEAR(*div, row.divergence, 1e-12)
          << MetricName(metric) << " "
          << expected->ItemsetName(row.items);
    }
  }
}

TEST(MultiExplorerTest, ProjectionYieldsIdenticalPatternTable) {
  const RandomLabeled data = MakeRandomLabeled(7);
  ExplorerOptions opts;
  opts.min_support = 0.05;
  MultiExplorer multi(opts);
  auto mtable = multi.Explore(data.dataset, data.preds, data.truths);
  ASSERT_TRUE(mtable.ok());

  DivergenceExplorer single(opts);
  for (Metric metric :
       {Metric::kFalsePositiveRate, Metric::kAccuracy,
        Metric::kFalseOmissionRate}) {
    auto projected = mtable->Project(metric);
    ASSERT_TRUE(projected.ok());
    auto expected =
        single.Explore(data.dataset, data.preds, data.truths, metric);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(projected->size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      const PatternRow& row = expected->row(i);
      auto j = projected->Find(row.items);
      ASSERT_TRUE(j.has_value());
      EXPECT_EQ(projected->row(*j).counts, row.counts);
      EXPECT_DOUBLE_EQ(projected->row(*j).divergence, row.divergence);
      EXPECT_DOUBLE_EQ(projected->row(*j).t, row.t);
    }
  }
}

TEST(MultiExplorerTest, GlobalCountsMatchConfusionMatrix) {
  const RandomLabeled data = MakeRandomLabeled(11);
  MultiExplorer multi;
  auto mtable = multi.Explore(data.dataset, data.preds, data.truths);
  ASSERT_TRUE(mtable.ok());
  uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  for (size_t i = 0; i < data.preds.size(); ++i) {
    const bool u = data.preds[i] == 1;
    const bool v = data.truths[i] == 1;
    tp += u && v;
    fp += u && !v;
    tn += !u && !v;
    fn += !u && v;
  }
  EXPECT_EQ(mtable->global_counts(), (ConfusionCounts{tp, fp, tn, fn}));
}

TEST(MultiExplorerTest, RejectsMismatchedLabels) {
  const RandomLabeled data = MakeRandomLabeled(13);
  MultiExplorer multi;
  auto bad = multi.Explore(data.dataset, {1, 0}, data.truths);
  EXPECT_FALSE(bad.ok());
}

TEST(MultiExplorerTest, AutoMinerMatchesAnExplicitMiner) {
  const RandomLabeled data = MakeRandomLabeled(19);
  ExplorerOptions opts;
  opts.min_support = 0.05;
  opts.miner = MinerKind::kAuto;
  auto chosen = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                            data.truths);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  opts.miner = MinerKind::kFpGrowth;
  auto explicit_miner = MultiExplorer(opts).Explore(
      data.dataset, data.preds, data.truths);
  ASSERT_TRUE(explicit_miner.ok());
  ASSERT_EQ(chosen->size(), explicit_miner->size());
  for (size_t i = 0; i < chosen->size(); ++i) {
    const auto j = explicit_miner->Find(chosen->row(i).items);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(explicit_miner->row(*j).counts, chosen->row(i).counts);
  }
}

TEST(MultiExplorerTest, NoRowsIsInvalidArgumentAsInTheOtherExplorers) {
  const RandomLabeled data = MakeRandomLabeled(23, 0);
  auto table = MultiExplorer().Explore(data.dataset, data.preds,
                                       data.truths);
  EXPECT_EQ(table.status().ToString(),
            "InvalidArgument: dataset has no rows");
}

TEST(MultiExplorerTest, SupportIndependentOfMetric) {
  const RandomLabeled data = MakeRandomLabeled(17);
  ExplorerOptions opts;
  opts.min_support = 0.04;
  MultiExplorer multi(opts);
  auto mtable = multi.Explore(data.dataset, data.preds, data.truths);
  ASSERT_TRUE(mtable.ok());
  for (size_t i = 0; i < mtable->size(); ++i) {
    const MultiPatternRow& row = mtable->row(i);
    EXPECT_EQ(row.counts.total(),
              data.dataset.Cover(row.items).size());
  }
}

}  // namespace
}  // namespace divexp
