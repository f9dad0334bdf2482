#include "core/corrective.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "testing/test_explore.h"

namespace divexp {
namespace {

using testing::ExploreForTest;
using testing::RandomTableForTest;

// a0=v1 is strongly divergent; adding a1=v1 pulls the rate back to the
// overall level — a1=v1 is a corrective item for {a0=v1} (Def. 4.2).
PatternTable MakeCorrectiveTable() {
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  // a0=v0 background: rate 0.2 (40 rows).
  for (int k = 0; k < 40; ++k) {
    rows.push_back({0, k % 2});
    outcomes += (k % 5 == 0) ? 'T' : 'F';
  }
  // a0=v1, a1=v0: rate 0.9 (20 rows) -> divergent.
  for (int k = 0; k < 20; ++k) {
    rows.push_back({1, 0});
    outcomes += (k < 18) ? 'T' : 'F';
  }
  // a0=v1, a1=v1: rate ~0.3 (20 rows) -> corrected back near overall.
  for (int k = 0; k < 20; ++k) {
    rows.push_back({1, 1});
    outcomes += (k < 6) ? 'T' : 'F';
  }
  return ExploreForTest(rows, {2, 2}, outcomes, 0.05);
}

TEST(CorrectiveTest, FindsTheInjectedCorrectiveItem) {
  const PatternTable table = MakeCorrectiveTable();
  const auto items = FindCorrectiveItems(table);
  ASSERT_FALSE(items.empty());
  // The strongest corrective pair must be ({a0=v1}, a1=v1):
  // |Δ({a0=v1})| ≈ 0.6−0.4=0.2... verify against the table directly.
  const CorrectiveItem& top = items.front();
  EXPECT_EQ(table.ItemsetName(top.base), "a0=v1");
  EXPECT_EQ(table.catalog().ItemName(top.item), "a1=v1");
  EXPECT_GT(top.factor, 0.0);
  EXPECT_NEAR(top.factor,
              std::fabs(top.base_divergence) -
                  std::fabs(top.with_divergence),
              1e-12);
}

TEST(CorrectiveTest, EveryReportedPairReducesAbsoluteDivergence) {
  const PatternTable table = MakeCorrectiveTable();
  for (const CorrectiveItem& c : FindCorrectiveItems(table)) {
    EXPECT_LT(std::fabs(c.with_divergence), std::fabs(c.base_divergence));
    // Cross-check both divergences against the table.
    EXPECT_NEAR(c.base_divergence, *table.Divergence(c.base), 1e-12);
    EXPECT_NEAR(c.with_divergence,
                *table.Divergence(With(c.base, c.item)), 1e-12);
  }
}

TEST(CorrectiveTest, SortedByDescendingFactor) {
  const PatternTable table = MakeCorrectiveTable();
  const auto items = FindCorrectiveItems(table);
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_GE(items[i - 1].factor, items[i].factor);
  }
}

TEST(CorrectiveTest, MinFactorFilters) {
  const PatternTable table = MakeCorrectiveTable();
  CorrectiveOptions opts;
  opts.min_factor = 0.25;
  for (const CorrectiveItem& c : FindCorrectiveItems(table, opts)) {
    EXPECT_GT(c.factor, 0.25);
  }
}

TEST(CorrectiveTest, TopKTruncates) {
  const PatternTable table = MakeCorrectiveTable();
  CorrectiveOptions opts;
  opts.top_k = 2;
  EXPECT_LE(FindCorrectiveItems(table, opts).size(), 2u);
}

TEST(CorrectiveTest, NoCorrectiveItemsInMonotoneData) {
  // Divergence only grows along this chain: no corrective pairs with a
  // positive factor should be reported for the divergent branch.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int k = 0; k < 40; ++k) {
    const int a0 = k < 20 ? 1 : 0;
    const int a1 = k % 2;
    rows.push_back({a0, a1});
    // Rate rises with a0 alone; a1 is noise-free neutral.
    outcomes += (a0 == 1) ? 'T' : 'F';
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 0.05);
  for (const CorrectiveItem& c : FindCorrectiveItems(table)) {
    // Any surviving pair must genuinely reduce |Δ|; with this synthetic
    // outcome only same-|Δ| pairs exist, so the list is empty.
    ADD_FAILURE() << "unexpected corrective pair: "
                  << table.ItemsetName(c.base) << " + "
                  << table.catalog().ItemName(c.item);
  }
}

TEST(CorrectiveTest, MatchesPairwiseDefinition) {
  // Def. 4.2 from scratch: every (I, I ∪ {α}) pair of table rows, found
  // by looking I ∪ {α} up for every catalog item α ∉ I (no subset
  // links), is corrective when |Δ(I)| − |Δ(I ∪ {α})| exceeds the
  // threshold. Ranking: factor descending, then shorter base, then base
  // items, then α — a total order, so a full sort is the reference.
  for (uint64_t seed : {31u, 32u, 33u}) {
    const PatternTable table =
        RandomTableForTest(seed, /*rows=*/200, /*attrs=*/4, /*domain=*/3);
    for (const double min_factor : {0.0, 0.02}) {
      std::vector<CorrectiveItem> expected;
      for (size_t i = 0; i < table.size(); ++i) {
        const PatternRow& base = table.row(i);
        for (uint32_t alpha = 0; alpha < table.catalog().num_items();
             ++alpha) {
          if (std::binary_search(base.items.begin(), base.items.end(),
                                 alpha)) {
            continue;
          }
          Itemset with = base.items;
          with.insert(std::upper_bound(with.begin(), with.end(), alpha),
                      alpha);
          const auto row = table.Find(with);
          if (!row.has_value()) continue;
          const PatternRow& superset = table.row(*row);
          const double factor = std::fabs(base.divergence) -
                                std::fabs(superset.divergence);
          if (factor <= 0.0 || factor <= min_factor) continue;
          expected.push_back(CorrectiveItem{base.items, alpha,
                                            base.divergence,
                                            superset.divergence, factor,
                                            superset.t});
        }
      }
      std::sort(expected.begin(), expected.end(),
                [](const CorrectiveItem& a, const CorrectiveItem& b) {
                  if (a.factor != b.factor) return a.factor > b.factor;
                  if (a.base.size() != b.base.size()) {
                    return a.base.size() < b.base.size();
                  }
                  if (a.base != b.base) return a.base < b.base;
                  return a.item < b.item;
                });
      ASSERT_GT(expected.size(), 10u) << "seed " << seed;

      for (const size_t top_k : {size_t{0}, size_t{7}}) {
        CorrectiveOptions options;
        options.min_factor = min_factor;
        options.top_k = top_k;
        const std::vector<CorrectiveItem> got =
            FindCorrectiveItems(table, options);
        const size_t want =
            top_k == 0 ? expected.size() : std::min(top_k, expected.size());
        ASSERT_EQ(got.size(), want)
            << "seed " << seed << " min_factor " << min_factor;
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(got[j].base, expected[j].base) << j;
          EXPECT_EQ(got[j].item, expected[j].item) << j;
          EXPECT_EQ(got[j].base_divergence, expected[j].base_divergence);
          EXPECT_EQ(got[j].with_divergence, expected[j].with_divergence);
          EXPECT_EQ(got[j].factor, expected[j].factor);
          EXPECT_EQ(got[j].t, expected[j].t);
        }
      }
    }
  }
}

}  // namespace
}  // namespace divexp
