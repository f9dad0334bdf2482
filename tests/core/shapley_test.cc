#include "core/shapley.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "testing/test_explore.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::ExploreForTest;
using testing::RandomTableForTest;

TEST(ShapleyTest, EfficiencyAxiomContributionsSumToDivergence) {
  // Fundamental Shapley property: sum of contributions equals Δ(I).
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const PatternTable table = RandomTableForTest(seed);
    for (size_t i = 0; i < table.size(); ++i) {
      const PatternRow& row = table.row(i);
      if (row.items.empty()) continue;
      auto contributions = ShapleyContributions(table, row.items);
      ASSERT_TRUE(contributions.ok());
      double sum = 0.0;
      for (const auto& c : *contributions) sum += c.contribution;
      EXPECT_NEAR(sum, row.divergence, 1e-9)
          << table.ItemsetName(row.items);
    }
  }
}

TEST(ShapleyTest, SingleItemContributionIsItsDivergence) {
  const PatternTable table = RandomTableForTest(7);
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.size() != 1) continue;
    auto contributions = ShapleyContributions(table, row.items);
    ASSERT_TRUE(contributions.ok());
    ASSERT_EQ(contributions->size(), 1u);
    EXPECT_NEAR((*contributions)[0].contribution, row.divergence, 1e-12);
  }
}

TEST(ShapleyTest, SymmetryForInterchangeableItems) {
  // Two perfectly correlated attributes: their items contribute equally
  // (Shapley symmetry axiom).
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const int v = rng.Bernoulli(0.5) ? 1 : 0;
    rows.push_back({v, v});
    // Divergent outcomes when v == 1.
    outcomes += (v == 1 ? (rng.Bernoulli(0.9) ? 'T' : 'F')
                        : (rng.Bernoulli(0.3) ? 'T' : 'F'));
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 0.05);
  // Itemset {a0=v1, a1=v1} = items {1, 3}.
  auto contributions = ShapleyContributions(table, Itemset{1, 3});
  ASSERT_TRUE(contributions.ok());
  ASSERT_EQ(contributions->size(), 2u);
  EXPECT_NEAR((*contributions)[0].contribution,
              (*contributions)[1].contribution, 1e-12);
}

TEST(ShapleyTest, NullItemGetsZero) {
  // Attribute a1 is pure noise with identical outcome distribution on
  // both values; construct deterministic rows so Δ is exactly equal
  // with and without the a1 items.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  // For each a0 value, outcomes identical across a1 values.
  for (int a0 : {0, 1}) {
    for (int a1 : {0, 1}) {
      // a0=1 gets 3 T + 1 F, a0=0 gets 1 T + 3 F, regardless of a1.
      for (int k = 0; k < 4; ++k) {
        rows.push_back({a0, a1});
        const bool t = (a0 == 1) ? (k < 3) : (k < 1);
        outcomes += t ? 'T' : 'F';
      }
    }
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 0.05);
  // In {a0=v1, a1=v0} (items {1, 2}), a1=v0 adds nothing.
  auto contributions = ShapleyContributions(table, Itemset{1, 2});
  ASSERT_TRUE(contributions.ok());
  for (const auto& c : *contributions) {
    if (c.item == 2) EXPECT_NEAR(c.contribution, 0.0, 1e-12);
  }
}

TEST(ShapleyTest, MatchesManualTwoItemFormula) {
  // For |I| = 2: Δ(α|I) = 0.5·[Δ(α) − Δ(∅)] + 0.5·[Δ(I) − Δ(β)].
  const PatternTable table = RandomTableForTest(13);
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.size() != 2) continue;
    auto contributions = ShapleyContributions(table, row.items);
    ASSERT_TRUE(contributions.ok());
    const uint32_t alpha = row.items[0];
    const uint32_t beta = row.items[1];
    const double expected =
        0.5 * (*table.Divergence(Itemset{alpha})) +
        0.5 * (row.divergence - *table.Divergence(Itemset{beta}));
    EXPECT_NEAR((*contributions)[0].contribution, expected, 1e-12);
  }
}

TEST(ShapleyTest, InfrequentItemsetRejected) {
  const PatternTable table = RandomTableForTest(17);
  EXPECT_FALSE(ShapleyContributions(table, Itemset{0, 99}).ok());
}

TEST(ShapleyTest, MatchesPermutationDefinition) {
  // Def. 4.1 from scratch: an item's contribution is its marginal gain
  // Δ(P ∪ {α}) − Δ(P) averaged over all n! orderings of I, where P is
  // the set of items ordered before α. Each prefix itemset is looked up
  // explicitly — no subset links, no submask enumeration.
  for (uint64_t seed : {21u, 22u, 23u}) {
    const PatternTable table =
        RandomTableForTest(seed, /*rows=*/240, /*attrs=*/6);
    size_t checked = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      const Itemset& items = table.row(i).items;
      if (items.empty() || items.size() > 6) continue;
      const auto divergence_of = [&](Itemset subset) {
        std::sort(subset.begin(), subset.end());
        const Result<double> d = table.Divergence(subset);
        DIVEXP_CHECK_OK(d.status());
        return *d;
      };
      std::vector<double> expected(items.size(), 0.0);
      std::vector<size_t> order(items.size());
      std::iota(order.begin(), order.end(), size_t{0});
      double orderings = 0.0;
      do {
        Itemset prefix;
        for (const size_t pos : order) {
          const double before = divergence_of(prefix);
          prefix.push_back(items[pos]);
          expected[pos] += divergence_of(prefix) - before;
        }
        orderings += 1.0;
      } while (std::next_permutation(order.begin(), order.end()));

      auto got = ShapleyContributions(table, items);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), items.size());
      for (size_t j = 0; j < items.size(); ++j) {
        EXPECT_EQ((*got)[j].item, items[j]);
        EXPECT_NEAR((*got)[j].contribution, expected[j] / orderings, 1e-12)
            << table.ItemsetName(items) << " item " << j;
      }
      ++checked;
    }
    EXPECT_GT(checked, 100u) << "seed " << seed;
  }
}

TEST(MarginalContributionTest, MatchesDivergenceDifference) {
  const PatternTable table = RandomTableForTest(19);
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.size() < 2) continue;
    for (uint32_t alpha : row.items) {
      auto marginal = MarginalContribution(table, row.items, alpha);
      ASSERT_TRUE(marginal.ok());
      const double expected =
          row.divergence - *table.Divergence(Without(row.items, alpha));
      EXPECT_NEAR(*marginal, expected, 1e-12);
    }
  }
}

}  // namespace
}  // namespace divexp
