// Property test of the two stores of one column layout: for seeded
// random tables, every read-surface accessor of the in-memory
// PatternTable must equal the same accessor of the TableView over the
// artifact written from it, row by row and bit for bit. PatternTable's
// hash index must find every row — by itemset and by immediate-subset
// view — and miss itemsets that are not rows, whatever the row order,
// and link only the rows a guard truncation kept.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "serve/artifact.h"
#include "testing/table_bytes.h"
#include "testing/test_explore.h"
#include "util/random.h"
#include "util/run_guard.h"

namespace divexp {
namespace serve {
namespace {

using divexp::testing::RandomTableForTest;
using divexp::testing::TableBytes;

std::vector<uint32_t> ToVector(std::span<const uint32_t> span) {
  return std::vector<uint32_t>(span.begin(), span.end());
}

// A random sorted set of 0..4 distinct catalog items.
Itemset RandomItemset(Rng& rng, uint32_t num_items) {
  std::vector<uint32_t> ids;
  const size_t len = rng.Below(5);
  for (size_t k = 0; k < len; ++k) {
    ids.push_back(static_cast<uint32_t>(rng.Below(num_items)));
  }
  return MakeItemset(std::move(ids));
}

// Every row found by its itemset and by each immediate-subset view
// (which must agree with the materialized subset and the lattice link),
// and random non-members missed.
void ExpectFindHitsRowsAndMissesOthers(const PatternTable& table,
                                       uint64_t seed) {
  std::set<Itemset> members;
  for (size_t i = 0; i < table.size(); ++i) {
    const ItemSpan items = table.row_items(i);
    members.emplace(items.begin(), items.end());
    ASSERT_EQ(table.Find(items), i) << "row " << i;
    const auto links = table.row_links(i);
    for (size_t j = 0; j < items.size(); ++j) {
      Itemset subset(items.begin(), items.end());
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(j));
      const auto by_view = table.Find(ItemsetSkipView{items, j});
      EXPECT_EQ(by_view, table.Find(subset)) << "row " << i << " skip " << j;
      ASSERT_TRUE(by_view.has_value()) << "complete tables hold subsets";
      EXPECT_EQ(*by_view, links[j]) << "row " << i << " skip " << j;
    }
  }
  ASSERT_EQ(members.size(), table.size());
  Rng rng(seed);
  size_t misses = 0;
  for (int q = 0; q < 2000; ++q) {
    const Itemset query = RandomItemset(rng, table.catalog().num_items());
    if (members.count(query) != 0) continue;
    ++misses;
    EXPECT_FALSE(table.Find(ItemSpan(query)).has_value())
        << ItemsetDebugString(query);
    if (!query.empty()) {
      // A skip view over a non-member's one-item extension is the
      // non-member itself.
      Itemset wider = query;
      const uint32_t extra = table.catalog().num_items();
      wider.push_back(extra);
      EXPECT_FALSE(
          table.Find(ItemsetSkipView{ItemSpan(wider), wider.size() - 1})
              .has_value());
    }
  }
  EXPECT_GT(misses, 100u);
}

// The rows of `canonical`, longest first and the empty itemset last,
// with the longer half shuffled among itself.
std::vector<MinedPattern> SupersetFirst(const PatternTable& canonical,
                                        uint64_t seed) {
  std::vector<MinedPattern> mined;
  for (size_t i = canonical.size(); i-- > 0;) {
    const ItemSpan items = canonical.row_items(i);
    mined.push_back({Itemset(items.begin(), items.end()),
                     canonical.counts(i)});
  }
  Rng rng(seed);
  for (size_t k = mined.size() / 2; k > 1; --k) {
    std::swap(mined[k - 1], mined[rng.Below(k)]);
  }
  return mined;
}

TEST(ReadSurfaceTest, TableViewEqualsPatternTableRowByRow) {
  struct Shape {
    size_t rows;
    size_t attrs;
    int domain;
    double support;
  };
  const Shape shapes[] = {{120, 3, 2, 0.01}, {200, 4, 3, 0.01},
                          {300, 6, 2, 0.02}, {80, 5, 4, 0.005}};
  uint64_t seed = 70;
  for (const Shape& shape : shapes) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const PatternTable table = RandomTableForTest(
          seed, shape.rows, shape.attrs, shape.domain, shape.support);
      auto artifact = PatternTableArtifact::FromBuffer(
          TableBytes(table), ArtifactValidation::kFull);
      ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
      const TableView& view = (*artifact)->view();
      ASSERT_EQ(view.size(), table.size());
      for (size_t i = 0; i < table.size(); ++i) {
        ASSERT_TRUE(view.row_ok(i));
        ASSERT_TRUE(table.row_ok(i));
        EXPECT_EQ(ToVector(view.row_items(i)), ToVector(table.row_items(i)))
            << "row " << i;
        EXPECT_EQ(ToVector(view.row_links(i)), ToVector(table.row_links(i)))
            << "row " << i;
        EXPECT_EQ(view.counts(i).t, table.counts(i).t);
        EXPECT_EQ(view.counts(i).f, table.counts(i).f);
        EXPECT_EQ(view.counts(i).bot, table.counts(i).bot);
        EXPECT_EQ(view.support(i), table.support(i));
        EXPECT_EQ(view.rate(i), table.rate(i));
        EXPECT_EQ(view.divergence(i), table.divergence(i));
        EXPECT_EQ(view.t(i), table.t(i));
        EXPECT_EQ(view.Find(table.row_items(i)), i);
      }
      ExpectFindHitsRowsAndMissesOthers(table, seed);
      Rng rng(seed + 1000);
      for (int q = 0; q < 500; ++q) {
        const Itemset query =
            RandomItemset(rng, table.catalog().num_items());
        EXPECT_EQ(view.Find(ItemSpan(query)), table.Find(ItemSpan(query)))
            << ItemsetDebugString(query);
      }
    }
  }
}

TEST(ReadSurfaceTest, FindWorksOnSupersetFirstRowOrder) {
  for (uint64_t seed : {90u, 91u, 92u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PatternTable canonical =
        RandomTableForTest(seed, /*rows=*/200, /*attrs=*/4, /*domain=*/3);
    auto table = PatternTable::Create(SupersetFirst(canonical, seed),
                                      canonical.catalog(),
                                      canonical.num_dataset_rows());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_EQ(table->size(), canonical.size());
    ASSERT_FALSE(table->row_items(0).empty());
    ExpectFindHitsRowsAndMissesOthers(*table, seed);
    for (size_t i = 0; i < table->size(); ++i) {
      const auto at = canonical.Find(table->row_items(i));
      ASSERT_TRUE(at.has_value());
      EXPECT_EQ(table->divergence(i), canonical.divergence(*at));
      EXPECT_EQ(table->t(i), canonical.t(*at));
    }
    // The artifact's binary search needs canonical order.
    EXPECT_FALSE(SerializePatternTableArtifact(*table).ok());
  }
}

// A guard that trips mid-post-pass keeps the input-order prefix whose
// PatternTable::RowBytes charges fit its budget (row 0 free). Links of
// the kept rows point at kept subsets or are kNoLink where the subset
// was dropped, and Find misses every dropped row.
TEST(ReadSurfaceTest, GuardTruncationLinksOnlyTheKeptRows) {
  for (uint64_t seed : {93u, 94u, 95u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PatternTable canonical =
        RandomTableForTest(seed, /*rows=*/200, /*attrs=*/4, /*domain=*/3);
    std::vector<MinedPattern> mined = SupersetFirst(canonical, seed);
    const size_t keep = mined.size() / 2;
    uint64_t budget = 4;  // below any one row's charge
    for (size_t i = 1; i < keep; ++i) {
      budget += PatternTable::RowBytes(mined[i].items.size());
    }
    RunLimits limits;
    limits.max_memory_mb = 1;
    RunGuard guard(limits);
    ASSERT_TRUE(guard.AddMemory((uint64_t{1} << 20) - budget));
    const std::vector<MinedPattern> input = mined;
    auto table = PatternTable::Create(std::move(mined), canonical.catalog(),
                                      canonical.num_dataset_rows(), &guard);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(guard.breach(), LimitBreach::kMemoryBudget);
    ASSERT_EQ(table->size(), keep);

    size_t linked = 0;
    size_t unlinked = 0;
    for (size_t i = 0; i < keep; ++i) {
      const ItemSpan items = table->row_items(i);
      ASSERT_EQ(Itemset(items.begin(), items.end()), input[i].items);
      EXPECT_EQ(table->Find(items), i);
      const auto at = canonical.Find(items);
      ASSERT_TRUE(at.has_value());
      // The global rate comes from the dropped empty itemset's tallies.
      EXPECT_EQ(table->divergence(i), canonical.divergence(*at));
      const auto links = table->row_links(i);
      for (size_t j = 0; j < items.size(); ++j) {
        const auto found = table->Find(ItemsetSkipView{items, j});
        if (found.has_value()) {
          EXPECT_EQ(links[j], *found) << "row " << i << " skip " << j;
          ++linked;
        } else {
          EXPECT_EQ(links[j], PatternTable::kNoLink)
              << "row " << i << " skip " << j;
          ++unlinked;
        }
      }
    }
    EXPECT_GT(linked, 0u);
    EXPECT_GT(unlinked, 0u);
    for (size_t i = keep; i < input.size(); ++i) {
      EXPECT_FALSE(table->Find(ItemSpan(input[i].items)).has_value())
          << ItemsetDebugString(input[i].items);
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace divexp
