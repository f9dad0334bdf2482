// Property test of the two stores of one column layout: for seeded
// random tables, every read-surface accessor of the in-memory
// PatternTable must equal the same accessor of the TableView over the
// artifact written from it, row by row and bit for bit. PatternTable's
// hash index must find every row — by itemset and by immediate-subset
// view — and miss itemsets that are not rows. Create must put any
// input order into canonical order, also when a guard truncates it.
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

using divexp::testing::PlantedTieTable;
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

// Create puts any input order into canonical order: a superset-first,
// half-shuffled input and a fully shuffled one give the canonical
// table's bytes, and the hash index finds every row.
TEST(ReadSurfaceTest, CreateCanonicalizesAnyRowOrder) {
  for (uint64_t seed : {90u, 91u, 92u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PatternTable canonical =
        RandomTableForTest(seed, /*rows=*/200, /*attrs=*/4, /*domain=*/3);
    std::vector<MinedPattern> shuffled = SupersetFirst(canonical, seed);
    Rng rng(seed + 7);
    for (size_t k = shuffled.size(); k > 1; --k) {
      std::swap(shuffled[k - 1], shuffled[rng.Below(k)]);
    }
    for (std::vector<MinedPattern> input :
         {SupersetFirst(canonical, seed), shuffled}) {
      auto table = PatternTable::Create(std::move(input),
                                        canonical.catalog(),
                                        canonical.num_dataset_rows());
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(TableBytes(*table), TableBytes(canonical));
      ExpectFindHitsRowsAndMissesOthers(*table, seed);
    }
  }
}

// A guard that trips mid-post-pass keeps the canonical prefix whose
// PatternTable::RowBytes charges fit its budget (row 0 free), whatever
// the input order: a superset-first input and the canonical one give
// the same bytes. The prefix of a complete table is downward closed,
// so every link of a kept row resolves, and Find misses every dropped
// row.
TEST(ReadSurfaceTest, GuardTruncationKeepsTheCanonicalPrefix) {
  for (uint64_t seed : {93u, 94u, 95u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PatternTable canonical =
        RandomTableForTest(seed, /*rows=*/200, /*attrs=*/4, /*domain=*/3);
    const size_t keep = canonical.size() / 2;
    uint64_t budget = 4;  // below any one row's charge
    for (size_t i = 1; i < keep; ++i) {
      budget += PatternTable::RowBytes(canonical.row_items(i).size());
    }
    std::vector<MinedPattern> in_order;
    for (size_t i = 0; i < canonical.size(); ++i) {
      const ItemSpan items = canonical.row_items(i);
      in_order.push_back({Itemset(items.begin(), items.end()),
                          canonical.counts(i)});
    }
    std::vector<std::string> bytes;
    for (std::vector<MinedPattern> input :
         {SupersetFirst(canonical, seed), in_order}) {
      RunLimits limits;
      limits.max_memory_mb = 1;
      RunGuard guard(limits);
      ASSERT_TRUE(guard.AddMemory((uint64_t{1} << 20) - budget));
      auto table = PatternTable::Create(std::move(input), canonical.catalog(),
                                        canonical.num_dataset_rows(), &guard);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(guard.breach(), LimitBreach::kMemoryBudget);
      ASSERT_EQ(table->size(), keep);
      bytes.push_back(TableBytes(*table));

      for (size_t i = 0; i < keep; ++i) {
        const ItemSpan items = table->row_items(i);
        ASSERT_EQ(ToVector(items), ToVector(canonical.row_items(i)));
        EXPECT_EQ(table->divergence(i), canonical.divergence(i));
        const auto links = table->row_links(i);
        for (size_t j = 0; j < items.size(); ++j) {
          EXPECT_EQ(links[j], canonical.row_links(i)[j])
              << "row " << i << " skip " << j;
          EXPECT_LT(links[j], keep);
        }
      }
      for (size_t i = keep; i < canonical.size(); ++i) {
        EXPECT_FALSE(table->Find(canonical.row_items(i)).has_value())
            << "row " << i;
      }
    }
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

// TopKRows breaks ties by row index; on a canonical table that is the
// documented item order. From the definition: every row stably sorted
// by the key in the requested direction, then higher support, then
// shorter itemset, then lexicographic items; the empty itemset and
// filtered rows dropped; the first k kept. Tables whose tallies come
// from a three-value palette tie on most keys and supports. Checked for
// small k (partial selection) and full rankings, in memory and served.
TEST(ReadSurfaceTest, TopKMatchesItemTieBreakDefinitionOnTieHeavyTables) {
  using RankKey = PatternTable::RankKey;
  for (uint64_t seed : {61u, 62u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PatternTable table =
        PlantedTieTable(seed, /*attrs=*/5, /*domain=*/3, /*max_len=*/3);
    auto artifact = PatternTableArtifact::FromBuffer(
        TableBytes(table), ArtifactValidation::kFull);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    const TableView& view = (*artifact)->view();
    for (const RankKey key :
         {RankKey::kDivergence, RankKey::kSignificance, RankKey::kSupport}) {
      const auto key_of = [&](size_t i) {
        return key == RankKey::kDivergence     ? table.divergence(i)
               : key == RankKey::kSignificance ? table.t(i)
                                               : table.support(i);
      };
      for (const bool descending : {true, false}) {
        std::vector<size_t> all;
        for (size_t i = 0; i < table.size(); ++i) {
          if (!table.row_items(i).empty()) all.push_back(i);
        }
        size_t ties = 0;
        std::stable_sort(all.begin(), all.end(), [&](size_t a, size_t b) {
          if (key_of(a) != key_of(b)) {
            return descending ? key_of(a) > key_of(b)
                              : key_of(a) < key_of(b);
          }
          if (table.support(a) != table.support(b)) {
            return table.support(a) > table.support(b);
          }
          ++ties;
          const ItemSpan ia = table.row_items(a);
          const ItemSpan ib = table.row_items(b);
          if (ia.size() != ib.size()) return ia.size() < ib.size();
          return std::lexicographical_compare(ia.begin(), ia.end(),
                                              ib.begin(), ib.end());
        });
        EXPECT_GT(ties, all.size()) << "the table must be tie-heavy";
        for (const size_t k : {size_t{1}, size_t{7}, size_t{60},
                               all.size() - 1, all.size(),
                               all.size() + 5}) {
          TopKQuery query;
          query.k = k;
          query.key = key;
          query.descending = descending;
          const std::vector<size_t> want(
              all.begin(), all.begin() + std::min(k, all.size()));
          auto in_memory = TopKRows(table, query);
          auto served = TopKRows(view, query);
          ASSERT_TRUE(in_memory.ok());
          ASSERT_TRUE(served.ok());
          EXPECT_EQ(*in_memory, want)
              << "key " << static_cast<int>(key) << " desc " << descending
              << " k " << k;
          EXPECT_EQ(*served, want)
              << "key " << static_cast<int>(key) << " desc " << descending
              << " k " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace divexp
