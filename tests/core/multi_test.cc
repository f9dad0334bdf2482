#include "core/multi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>

#include "testing/miner_tables.h"
#include "testing/pattern_buffers.h"
#include "testing/table_bytes.h"
#include "testing/test_data.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::BufferOf;
using testing::MakeEncoded;
using testing::TableBytes;

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

/// A miner_tables.h input with seeded labels. A row whose first
/// attribute's item id is even is never predicted positive, so every
/// itemset holding such an item is all-⊥ under PPV and FDR.
RandomLabeled LabelMinerTable(const testing::MinerTableSpec& spec) {
  RandomLabeled out;
  out.dataset = testing::MakeMinerTable(spec).dataset;
  Rng rng(spec.seed + 1000);
  for (size_t r = 0; r < out.dataset.num_rows; ++r) {
    const bool never_positive = out.dataset.at(r, 0) % 2 == 0;
    out.preds.push_back(!never_positive && rng.Bernoulli(0.6) ? 1 : 0);
    out.truths.push_back(
        rng.Bernoulli(out.dataset.at(r, 1) % 2 == 0 ? 0.3 : 0.6) ? 1 : 0);
  }
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

// Every projection is the single-metric exploration, byte for byte
// (artifact bytes: catalog, globals, items, tallies, stats, links), for
// every metric, on every miner table, whatever miner, thread count and
// kernel mine the two channels.
TEST(MultiExplorerTest, ProjectionsAreByteIdenticalToSingleMetricTables) {
  size_t all_bottom_ppv_rows = 0;
  for (const testing::MinerTableSpec& spec : testing::MinerTableSpecs()) {
    SCOPED_TRACE(spec.label);
    const RandomLabeled data = LabelMinerTable(spec);
    ExplorerOptions reference_opts;
    reference_opts.min_support = 0.05;
    reference_opts.kernel = fpm::KernelKind::kScalar;
    std::vector<std::string> expected;
    for (Metric metric : kAllMetrics) {
      auto table = DivergenceExplorer(reference_opts)
                       .Explore(data.dataset, data.preds, data.truths,
                                metric);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      expected.push_back(TableBytes(*table));
      if (metric == Metric::kPositivePredictiveValue) {
        for (size_t i = 0; i < table->size(); ++i) {
          const OutcomeCounts c = table->counts(i);
          all_bottom_ppv_rows += c.t + c.f == 0;
        }
      }
    }
    for (MinerKind miner :
         {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
      for (size_t threads : {1, 4}) {
        for (fpm::KernelKind kernel :
             {fpm::KernelKind::kScalar, fpm::KernelKind::kSimd}) {
          SCOPED_TRACE(std::string(MinerKindName(miner)) + " threads " +
                       std::to_string(threads) + " kernel " +
                       std::to_string(static_cast<int>(kernel)));
          ExplorerOptions opts = reference_opts;
          opts.miner = miner;
          opts.num_threads = threads;
          opts.kernel = kernel;
          auto multi = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                                   data.truths);
          ASSERT_TRUE(multi.ok()) << multi.status().ToString();
          for (size_t m = 0; m < std::size(kAllMetrics); ++m) {
            auto projected = multi->Project(kAllMetrics[m]);
            ASSERT_TRUE(projected.ok()) << projected.status().ToString();
            EXPECT_TRUE(TableBytes(*projected) == expected[m])
                << MetricName(kAllMetrics[m]);
          }
        }
      }
    }
  }
  // PPV's undefined rows are covered, not vacuously absent.
  EXPECT_GT(all_bottom_ppv_rows, 0u);
}

TEST(MultiExplorerTest, RowsAreCanonicalAndFindLocatesEachRow) {
  const RandomLabeled data = MakeRandomLabeled(3);
  ExplorerOptions opts;
  opts.min_support = 0.03;
  auto multi = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                           data.truths);
  ASSERT_TRUE(multi.ok());
  ASSERT_GT(multi->size(), 1u);
  EXPECT_TRUE(multi->row_items(0).empty());
  for (size_t i = 0; i < multi->size(); ++i) {
    if (i > 0) {
      EXPECT_TRUE(CanonicalLess(multi->row_items(i - 1),
                                multi->row_items(i)))
          << i;
    }
    EXPECT_EQ(multi->Find(multi->row_items(i)), i);
  }
  // Attribute 0's three items never co-occur in one row.
  EXPECT_FALSE(multi->Find(Itemset{0, 1}).has_value());
  EXPECT_EQ(
      multi->Divergence(Metric::kAccuracy, Itemset{0, 1}).status().code(),
      StatusCode::kNotFound);
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
    EXPECT_TRUE(std::ranges::equal(chosen->row_items(i),
                                   explicit_miner->row_items(i)));
    EXPECT_EQ(chosen->counts(i), explicit_miner->counts(i));
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
    const ItemSpan items = mtable->row_items(i);
    EXPECT_EQ(mtable->counts(i).total(),
              data.dataset.Cover(Itemset(items.begin(), items.end())).size());
  }
}

// Both channels mine with the resolved plan's thread count: at four
// threads FP-growth fans each channel's header items out over worker
// threads, and every worker start crosses `parallel.worker`. A
// single-threaded mine never does, and one degraded ParallelFor call
// per channel would cross it only twice, so the third hit fires only
// when a channel really mined in parallel.
TEST(MultiExplorerTest, ChannelsMineWithThePlansThreads) {
  const RandomLabeled data = MakeRandomLabeled(29);
  ExplorerOptions opts;
  opts.min_support = 0.03;
  opts.miner = MinerKind::kFpGrowth;
  FailPointRegistry& registry = FailPointRegistry::Default();
  for (size_t threads : {1, 4}) {
    opts.num_threads = threads;
    ScopedFailPoints faults("parallel.worker@3:delay-1");
    const uint64_t before = registry.faults_injected();
    auto multi = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                             data.truths);
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    EXPECT_EQ(registry.faults_injected() - before, threads > 1 ? 1u : 0u)
        << threads << " threads";
  }
}

// Both channel mines run under the run's guard, and a stop is the
// guard's status in every on_limit mode: a truncated channel could not
// be zipped with the other. A budget that fits changes nothing.
TEST(MultiExplorerTest, PatternBudgetStopsTheRunInEveryMode) {
  const RandomLabeled data = MakeRandomLabeled(31);
  ExplorerOptions opts;
  opts.min_support = 0.03;
  auto ungoverned = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                                data.truths);
  ASSERT_TRUE(ungoverned.ok());
  for (LimitAction action : {LimitAction::kFail, LimitAction::kTruncate,
                             LimitAction::kEscalate}) {
    opts.on_limit = action;
    opts.limits.max_patterns = 3;
    auto stopped = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                               data.truths);
    EXPECT_EQ(stopped.status().code(), StatusCode::kResourceExhausted)
        << LimitActionName(action);
    opts.limits.max_patterns = ungoverned->size();
    auto fits = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                            data.truths);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    ASSERT_EQ(fits->size(), ungoverned->size());
    for (size_t i = 0; i < fits->size(); ++i) {
      EXPECT_EQ(fits->counts(i), ungoverned->counts(i));
    }
  }
}

// An external guard replaces the limits: one whose deadline has passed
// stops the first mine at its first tick.
TEST(MultiExplorerTest, ExternalGuardDeadlineStopsTheRun) {
  const RandomLabeled data = MakeRandomLabeled(37);
  RunLimits limits;
  limits.deadline_ms = 1;
  RunGuard guard(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ExplorerOptions opts;
  opts.min_support = 0.03;
  opts.guard = &guard;
  opts.on_limit = LimitAction::kTruncate;
  auto stopped = MultiExplorer(opts).Explore(data.dataset, data.preds,
                                             data.truths);
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.breach(), LimitBreach::kDeadline);
}

TEST(MultiPatternTableTest, ZipsChannelsIntoCanonicalConfusionRows) {
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x", "y"});
  catalog.AddAttribute("b", {"x", "y"});
  // Emission order, not canonical: (t, f, bot) are (FP, TN, positives)
  // in the negative channel and (TP, FN, negatives) in the positive one.
  const PatternBuffer negatives = BufferOf({
      {{}, {4, 3, 7}},
      {{0, 2}, {1, 1, 2}},
      {{2}, {2, 2, 3}},
      {{0}, {3, 1, 2}},
  });
  const PatternBuffer positives = BufferOf({
      {{}, {5, 2, 7}},
      {{0, 2}, {2, 0, 2}},
      {{2}, {1, 2, 4}},
      {{0}, {1, 1, 4}},
  });
  auto table =
      MultiPatternTable::Create(negatives, positives, catalog, 14);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ(table->size(), 4u);
  EXPECT_EQ(table->num_dataset_rows(), 14u);
  const Itemset canonical[] = {{}, {0}, {2}, {0, 2}};
  const ConfusionCounts counts[] = {
      {5, 4, 3, 2}, {1, 3, 1, 1}, {1, 2, 2, 2}, {2, 1, 1, 0}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::ranges::equal(table->row_items(i), canonical[i]))
        << i;
    EXPECT_EQ(table->counts(i), counts[i]) << i;
    EXPECT_EQ(table->Find(canonical[i]), i);
  }
  EXPECT_EQ(table->global_counts(), counts[0]);
  EXPECT_FALSE(table->Find(Itemset{1}).has_value());
  // FPR({0}) = FP / (FP + TN) = 3 / 4; FPR(D) = 4 / 7.
  auto div = table->Divergence(Metric::kFalsePositiveRate, Itemset{0});
  ASSERT_TRUE(div.ok());
  EXPECT_EQ(*div, 3.0 / 4.0 - 4.0 / 7.0);
}

TEST(MultiPatternTableTest, ChannelMismatchIsInternal) {
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x", "y"});
  catalog.AddAttribute("b", {"x", "y"});
  const PatternBuffer negatives = BufferOf({
      {{}, {4, 3, 7}},
      {{0}, {3, 1, 2}},
      {{2}, {2, 2, 3}},
  });
  // Same size, same itemsets, but emitted in another order.
  const PatternBuffer reordered = BufferOf({
      {{}, {5, 2, 7}},
      {{2}, {1, 2, 4}},
      {{0}, {1, 1, 4}},
  });
  const PatternBuffer shorter = BufferOf({
      {{}, {5, 2, 7}},
      {{0}, {1, 1, 4}},
  });
  const PatternBuffer rootless = BufferOf({{{0}, {3, 1, 2}}});
  for (const auto& [name, negative, positive] :
       {std::tuple{"reordered", &negatives, &reordered},
        std::tuple{"shorter", &negatives, &shorter},
        std::tuple{"rootless", &rootless, &rootless}}) {
    auto table = MultiPatternTable::Create(*negative, *positive, catalog, 7);
    EXPECT_EQ(table.status().code(), StatusCode::kInternal)
        << name << ": " << table.status().ToString();
  }
}

}  // namespace
}  // namespace divexp
