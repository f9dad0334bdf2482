#include "slicefinder/slicefinder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fpm/miner.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

// Loss concentrated in the {a0=v1, a1=v1} slice.
struct LossyCase {
  EncodedDataset dataset;
  std::vector<double> loss;
};

LossyCase MakePairCase(size_t n = 1200, uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<std::vector<int>> rows;
  std::vector<double> loss;
  for (size_t i = 0; i < n; ++i) {
    const int a0 = rng.Bernoulli(0.5) ? 1 : 0;
    const int a1 = rng.Bernoulli(0.5) ? 1 : 0;
    const int a2 = rng.Bernoulli(0.5) ? 1 : 0;
    rows.push_back({a0, a1, a2});
    const double p = (a0 == 1 && a1 == 1) ? 0.8 : 0.05;
    loss.push_back(rng.Bernoulli(p) ? 1.0 : 0.0);
  }
  return {MakeEncoded(rows, {2, 2, 2}), std::move(loss)};
}

TEST(SliceFinderTest, DefaultThresholdStopsAtFragments) {
  // The §6.5 phenomenon: with the default effect size the *fragments*
  // {a0=v1} and {a1=v1} are already problematic, the search stops, and
  // the true source pair {a0=v1, a1=v1} is never returned.
  const LossyCase c = MakePairCase();
  SliceFinder finder;  // default threshold 0.4
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  bool has_a0 = false, has_a1 = false, has_pair = false;
  for (const Slice& s : *slices) {
    if (s.items == Itemset({1})) has_a0 = true;
    if (s.items == Itemset({3})) has_a1 = true;
    if (s.items == Itemset({1, 3})) has_pair = true;
  }
  EXPECT_TRUE(has_a0);
  EXPECT_TRUE(has_a1);
  EXPECT_FALSE(has_pair);
}

TEST(SliceFinderTest, RaisedThresholdReachesTrueSource) {
  // Raising the effect-size threshold past the fragments' effect size
  // lets the search expand down to the real source (the paper raises
  // it to 1.65 in §6.5 for the same reason).
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 1.5;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  bool has_pair = false;
  for (const Slice& s : *slices) {
    EXPECT_GE(s.effect_size, 1.5);
    if (s.items == Itemset({1, 3})) has_pair = true;
  }
  EXPECT_TRUE(has_pair);
}

TEST(SliceFinderTest, ProblematicSlicesNotExpanded) {
  // Once {a0=v1, a1=v1} is problematic, no superset of it may appear.
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 1.5;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  for (const Slice& s : *slices) {
    if (s.items.size() <= 2) continue;
    EXPECT_FALSE(IsSubset(Itemset({1, 3}), s.items))
        << ItemsetDebugString(s.items);
  }
}

TEST(SliceFinderTest, ResultsSortedBySizeDescending) {
  const LossyCase c = MakePairCase();
  SliceFinder finder;
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  for (size_t i = 1; i < slices->size(); ++i) {
    EXPECT_GE((*slices)[i - 1].size, (*slices)[i].size);
  }
}

TEST(SliceFinderTest, EffectSizeThresholdGates) {
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 1e9;  // nothing qualifies
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_TRUE(slices->empty());
}

TEST(SliceFinderTest, MaxDegreeBoundsSliceLength) {
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 0.05;  // everything borderline qualifies
  opts.max_degree = 1;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  for (const Slice& s : *slices) {
    EXPECT_EQ(s.items.size(), 1u);
  }
}

TEST(SliceFinderTest, MinSizeSkipsTinySlices) {
  const LossyCase c = MakePairCase(200);
  SliceFinderOptions opts;
  opts.min_size = 1000;  // bigger than the dataset
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_TRUE(slices->empty());
}

TEST(SliceFinderTest, TopKTruncates) {
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 0.01;
  opts.alpha = 0.5;
  opts.top_k = 2;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_LE(slices->size(), 2u);
}

TEST(SliceFinderTest, LossSizeMismatchRejected) {
  const LossyCase c = MakePairCase(100);
  SliceFinder finder;
  auto slices = finder.FindSlices(c.dataset, std::vector<double>(5, 0.0));
  EXPECT_FALSE(slices.ok());
}

TEST(SliceFinderTest, UniformLossYieldsNothing) {
  Rng rng(9);
  std::vector<std::vector<int>> rows;
  std::vector<double> loss;
  for (int i = 0; i < 800; ++i) {
    rows.push_back({static_cast<int>(rng.Below(2)),
                    static_cast<int>(rng.Below(2))});
    loss.push_back(rng.Bernoulli(0.2) ? 1.0 : 0.0);
  }
  const EncodedDataset ds = MakeEncoded(rows, {2, 2});
  SliceFinder finder;
  auto slices = finder.FindSlices(ds, loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_TRUE(slices->empty());
}

TEST(SliceFinderTest, AlphaInvestingIsMoreConservative) {
  // Under pure noise, alpha-investing should reject fewer (or equal)
  // slices than the fixed-alpha rule.
  Rng rng(21);
  std::vector<std::vector<int>> rows;
  std::vector<double> loss;
  for (int i = 0; i < 1500; ++i) {
    rows.push_back({static_cast<int>(rng.Below(3)),
                    static_cast<int>(rng.Below(3)),
                    static_cast<int>(rng.Below(2))});
    loss.push_back(rng.Bernoulli(0.25) ? 1.0 : 0.0);
  }
  const EncodedDataset ds = MakeEncoded(rows, {3, 3, 2});
  SliceFinderOptions fixed;
  fixed.effect_size_threshold = 0.01;  // effect gate wide open
  fixed.alpha = 0.2;
  SliceFinderOptions investing = fixed;
  investing.alpha_investing = true;
  auto fixed_slices = SliceFinder(fixed).FindSlices(ds, loss);
  auto inv_slices = SliceFinder(investing).FindSlices(ds, loss);
  ASSERT_TRUE(fixed_slices.ok());
  ASSERT_TRUE(inv_slices.ok());
  EXPECT_LE(inv_slices->size(), fixed_slices->size());
}

TEST(SliceFinderTest, AlphaInvestingStillFindsStrongSlices) {
  const LossyCase c = MakePairCase();
  SliceFinderOptions opts;
  opts.effect_size_threshold = 1.5;
  opts.alpha_investing = true;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  bool has_pair = false;
  for (const Slice& s : *slices) {
    if (s.items == Itemset({1, 3})) has_pair = true;
  }
  EXPECT_TRUE(has_pair);
}

TEST(SliceFinderGuardTest, UngovernedRunReportsNoBreach) {
  const LossyCase c = MakePairCase();
  SliceFinder finder;
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_FALSE(finder.last_truncated());
  EXPECT_EQ(finder.last_breach(), LimitBreach::kNone);
}

TEST(SliceFinderGuardTest, SliceBudgetTruncatesSearch) {
  const LossyCase c = MakePairCase();
  // The default threshold finds at least the two fragment slices; a
  // budget of 1 stops the search after the first.
  RunLimits limits;
  limits.max_patterns = 1;
  RunGuard guard(limits);
  SliceFinderOptions opts;
  opts.guard = &guard;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_EQ(slices->size(), 1u);
  EXPECT_TRUE(finder.last_truncated());
  EXPECT_EQ(finder.last_breach(), LimitBreach::kPatternBudget);
}

TEST(SliceFinderGuardTest, CancelledSearchReturnsEarly) {
  const LossyCase c = MakePairCase();
  RunGuard guard;
  guard.RequestCancel();
  SliceFinderOptions opts;
  opts.guard = &guard;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_TRUE(slices->empty());
  EXPECT_EQ(finder.last_breach(), LimitBreach::kCancelled);
}

TEST(SliceFinderGuardTest, MemoryAccountingBalancesAfterRun) {
  const LossyCase c = MakePairCase();
  RunGuard guard;
  SliceFinderOptions opts;
  opts.guard = &guard;
  SliceFinder finder(opts);
  auto slices = finder.FindSlices(c.dataset, c.loss);
  ASSERT_TRUE(slices.ok());
  EXPECT_GT(guard.peak_memory_bytes(), 0u);
  // All working bitmaps were released; what remains tracked is exactly
  // the emitted output (owned by the caller now, like miner patterns).
  uint64_t out_bytes = 0;
  for (const Slice& s : *slices) {
    out_bytes += sizeof(Slice) + s.items.size() * sizeof(uint32_t);
  }
  EXPECT_EQ(guard.memory_bytes(), out_bytes);
}

TEST(SliceFinderGuardTest, BreachStateResetsBetweenRuns) {
  const LossyCase c = MakePairCase();
  RunLimits limits;
  limits.max_patterns = 1;
  RunGuard guard(limits);
  SliceFinderOptions opts;
  opts.guard = &guard;
  SliceFinder finder(opts);
  ASSERT_TRUE(finder.FindSlices(c.dataset, c.loss).ok());
  EXPECT_TRUE(finder.last_truncated());

  // A fresh, ungoverned finder over the same data is complete again.
  SliceFinder plain;
  ASSERT_TRUE(plain.FindSlices(c.dataset, c.loss).ok());
  EXPECT_FALSE(plain.last_truncated());
}

TEST(ZeroOneLossTest, OnePerMistake) {
  const auto loss = ZeroOneLoss({1, 0, 1}, {1, 1, 0});
  EXPECT_EQ(loss, (std::vector<double>{0.0, 1.0, 1.0}));
}

TEST(LogLossTest, ConfidentWrongIsExpensive) {
  auto loss = LogLoss({0.999, 0.001, 0.5}, {0, 0, 1});
  ASSERT_TRUE(loss.ok());
  EXPECT_GT((*loss)[0], 5.0);   // confident and wrong
  EXPECT_LT((*loss)[1], 0.01);  // confident and right
  EXPECT_NEAR((*loss)[2], std::log(2.0), 1e-9);
}

TEST(LogLossTest, ClipsExtremeProbabilities) {
  auto loss = LogLoss({0.0, 1.0}, {1, 0}, 1e-6);
  ASSERT_TRUE(loss.ok());
  for (double l : *loss) {
    EXPECT_LT(l, 20.0);  // bounded by the clip
  }
}

TEST(LogLossTest, SizeMismatchRejected) {
  EXPECT_FALSE(LogLoss({0.5}, {1, 0}).ok());
}

}  // namespace
}  // namespace divexp
