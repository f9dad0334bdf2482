#include "core/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "testing/test_explore.h"

namespace divexp {
namespace {

using testing::ExploreForTest;
using testing::RandomTableForTest;

// 2 binary attributes, 8 rows. Outcomes chosen so that a0=v1 has a
// higher positive rate than the dataset.
PatternTable MakeSmallTable(double support = 0.1) {
  return ExploreForTest(
      {{0, 0}, {0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 1}, {1, 1}},
      {2, 2},
      "FFFTTTTB",  // f(D) = 4/7
      support);
}

TEST(PatternTableTest, GlobalRateFromEmptyItemset) {
  const PatternTable table = MakeSmallTable();
  EXPECT_NEAR(table.global_rate(), 4.0 / 7.0, 1e-12);
  EXPECT_EQ(table.num_dataset_rows(), 8u);
}

TEST(PatternTableTest, RowFieldsConsistent) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& r = table.row(i);
    EXPECT_NEAR(r.support,
                static_cast<double>(r.counts.total()) / 8.0, 1e-12);
    EXPECT_NEAR(r.rate, r.counts.PositiveRate(), 1e-12);
    EXPECT_NEAR(r.divergence, r.rate - table.global_rate(), 1e-12);
    EXPECT_GE(r.t, 0.0);
  }
}

TEST(PatternTableTest, FindAndDivergence) {
  const PatternTable table = MakeSmallTable();
  // a0=v1 (item 1) covers rows 4..7: outcomes T T T B -> rate 1.
  auto idx = table.Find(Itemset{1});
  ASSERT_TRUE(idx.has_value());
  EXPECT_NEAR(table.row(*idx).rate, 1.0, 1e-12);
  auto div = table.Divergence(Itemset{1});
  ASSERT_TRUE(div.ok());
  EXPECT_NEAR(*div, 1.0 - 4.0 / 7.0, 1e-12);
  EXPECT_FALSE(table.Divergence(Itemset{99}).ok());
}

TEST(PatternTableTest, EmptyItemsetHasZeroDivergence) {
  const PatternTable table = MakeSmallTable();
  auto div = table.Divergence(Itemset{});
  ASSERT_TRUE(div.ok());
  EXPECT_DOUBLE_EQ(*div, 0.0);
}

TEST(PatternTableTest, RankByDivergenceDescendingExcludesRoot) {
  const PatternTable table = MakeSmallTable();
  const auto order = table.RankByDivergence(true);
  EXPECT_EQ(order.size(), table.size() - 1);  // root excluded
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(table.row(order[i - 1]).divergence,
              table.row(order[i]).divergence);
  }
  // Ascending is the reverse ordering on values.
  const auto asc = table.RankByDivergence(false);
  EXPECT_EQ(table.row(asc.front()).divergence,
            table.row(order.back()).divergence);
}

TEST(PatternTableTest, TopKFilters) {
  const PatternTable table = MakeSmallTable();
  const auto top = table.TopK(3);
  EXPECT_LE(top.size(), 3u);
  // With min_support = 0.6 only itemsets covering >= 5 of 8 rows
  // qualify — none of the single items (4 rows each) do.
  const auto high_support = table.TopK(10, true, 0.6);
  for (size_t i : high_support) {
    EXPECT_GE(table.row(i).support, 0.6);
  }
  // max_len = 1 excludes pairs.
  for (size_t i : table.TopK(10, true, 0.0, 1, 1)) {
    EXPECT_EQ(table.row(i).items.size(), 1u);
  }
}

TEST(PatternTableTest, RankBySignificanceAndSupport) {
  const PatternTable table = MakeSmallTable();
  const auto by_t = table.Rank(PatternTable::RankKey::kSignificance);
  for (size_t i = 1; i < by_t.size(); ++i) {
    EXPECT_GE(table.row(by_t[i - 1]).t, table.row(by_t[i]).t);
  }
  const auto by_sup = table.Rank(PatternTable::RankKey::kSupport);
  for (size_t i = 1; i < by_sup.size(); ++i) {
    EXPECT_GE(table.row(by_sup[i - 1]).support,
              table.row(by_sup[i]).support);
  }
  // All three rankings cover the same rows.
  EXPECT_EQ(by_t.size(), table.RankByDivergence().size());
  EXPECT_EQ(by_sup.size(), by_t.size());
}

TEST(PatternTableTest, ItemsetNameRendering) {
  const PatternTable table = MakeSmallTable();
  EXPECT_EQ(table.ItemsetName(Itemset{}), "(all)");
  EXPECT_EQ(table.ItemsetName(Itemset{0}), "a0=v0");
  EXPECT_EQ(table.ItemsetName(Itemset{0, 3}), "a0=v0, a1=v1");
}

TEST(PatternTableTest, ParseItemsetRoundTrip) {
  const PatternTable table = MakeSmallTable();
  auto items = table.ParseItemset({{"a1", "v1"}, {"a0", "v0"}});
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(*items, (Itemset{0, 3}));
  EXPECT_FALSE(table.ParseItemset({{"a0", "nope"}}).ok());
}

TEST(PatternTableTest, CreateRequiresEmptyItemset) {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x"});
  auto table = PatternTable::Create(std::move(mined), catalog, 1);
  EXPECT_FALSE(table.ok());
}

TEST(PatternTableTest, CreateRejectsDuplicates) {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{1, 0, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{1, 0, 0}});
  ItemCatalog catalog;
  catalog.AddAttribute("a", {"x"});
  auto table = PatternTable::Create(std::move(mined), catalog, 1);
  EXPECT_FALSE(table.ok());
}

TEST(PatternTableTest, SubsetLinksResolveImmediateSubsets) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto links = table.row_links(i);
    ASSERT_EQ(links.size(), items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      // Complete exploration: every immediate subset is present.
      ASSERT_NE(links[j], PatternTable::kNoLink);
      Itemset expected = items;
      expected.erase(expected.begin() + static_cast<ptrdiff_t>(j));
      EXPECT_EQ(table.row(links[j]).items, expected);
    }
  }
}

TEST(PatternTableTest, HeterogeneousFindMatchesItemsetFind) {
  const PatternTable table = MakeSmallTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto by_span = table.Find(ItemSpan(items));
    ASSERT_TRUE(by_span.has_value());
    EXPECT_EQ(*by_span, i);
  }
  const Itemset absent = {0, 1};  // two values of the same attribute
  EXPECT_FALSE(table.Find(ItemSpan(absent)).has_value());
}

TEST(PatternTableTest, TopKMatchesRankPrefix) {
  const PatternTable table = MakeSmallTable();
  const auto ranked = table.RankByDivergence(true);
  for (size_t k : {size_t{1}, size_t{3}, ranked.size(), ranked.size() + 5}) {
    const auto top = table.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, ranked.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i], ranked[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(PatternTableTest, SignificanceGrowsWithSampleSize) {
  // Same 3:1 outcome ratio but 10x the rows -> larger t.
  std::vector<std::vector<int>> small_rows, big_rows;
  std::string small_o, big_o;
  for (int rep = 0; rep < 4; ++rep) {
    small_rows.push_back({0});
    small_o += (rep < 3 ? 'T' : 'F');
    small_rows.push_back({1});
    small_o += (rep < 3 ? 'F' : 'T');
  }
  for (int rep = 0; rep < 40; ++rep) {
    big_rows.push_back({0});
    big_o += (rep < 30 ? 'T' : 'F');
    big_rows.push_back({1});
    big_o += (rep < 30 ? 'F' : 'T');
  }
  const PatternTable small =
      testing::ExploreForTest(small_rows, {2}, small_o, 0.1);
  const PatternTable big =
      testing::ExploreForTest(big_rows, {2}, big_o, 0.1);
  const double t_small = small.row(*small.Find(Itemset{0})).t;
  const double t_big = big.row(*big.Find(Itemset{0})).t;
  EXPECT_GT(t_big, t_small);
}

TEST(PatternTableTest, TopKMatchesFullStableSortDefinition) {
  // The documented order from scratch: every row stably sorted by the
  // key (in the requested direction), ties broken by higher support,
  // then shorter itemset, then lexicographic items; the empty itemset
  // and rows outside the support/length filters dropped; first k kept.
  using RankKey = PatternTable::RankKey;
  for (uint64_t seed : {41u, 42u}) {
    const PatternTable table =
        RandomTableForTest(seed, /*rows=*/150, /*attrs=*/4, /*domain=*/3);
    for (const RankKey key :
         {RankKey::kDivergence, RankKey::kSignificance, RankKey::kSupport}) {
      const auto key_of = [&](const PatternRow& r) {
        return key == RankKey::kDivergence     ? r.divergence
               : key == RankKey::kSignificance ? r.t
                                               : r.support;
      };
      for (const bool descending : {true, false}) {
        std::vector<size_t> all(table.size());
        for (size_t i = 0; i < all.size(); ++i) all[i] = i;
        std::stable_sort(all.begin(), all.end(), [&](size_t a, size_t b) {
          const PatternRow& ra = table.row(a);
          const PatternRow& rb = table.row(b);
          if (key_of(ra) != key_of(rb)) {
            return descending ? key_of(ra) > key_of(rb)
                              : key_of(ra) < key_of(rb);
          }
          if (ra.support != rb.support) return ra.support > rb.support;
          if (ra.items.size() != rb.items.size()) {
            return ra.items.size() < rb.items.size();
          }
          return ra.items < rb.items;
        });
        for (const double min_support : {0.0, 0.05}) {
          for (const size_t max_len : {size_t{0}, size_t{2}}) {
            std::vector<size_t> filtered;
            for (const size_t i : all) {
              const PatternRow& r = table.row(i);
              if (r.items.empty() || r.support < min_support) continue;
              if (max_len != 0 && r.items.size() > max_len) continue;
              filtered.push_back(i);
            }
            for (const size_t k : {size_t{1}, size_t{9}, table.size()}) {
              TopKQuery query;
              query.k = k;
              query.key = key;
              query.descending = descending;
              query.min_support = min_support;
              query.max_len = max_len;
              const std::vector<size_t> want(
                  filtered.begin(),
                  filtered.begin() + std::min(k, filtered.size()));
              auto got = TopKRows(table, query);
              ASSERT_TRUE(got.ok());
              EXPECT_EQ(*got, want)
                  << "key " << static_cast<int>(key) << " desc "
                  << descending << " min_support " << min_support
                  << " max_len " << max_len << " k " << k;
              if (key == RankKey::kDivergence) {
                EXPECT_EQ(table.TopK(k, descending, min_support, 1,
                                     max_len),
                          want);
              }
            }
            if (min_support == 0.0 && max_len == 0) {
              EXPECT_EQ(table.Rank(key, descending), filtered);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace divexp
