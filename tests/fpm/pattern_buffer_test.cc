// The miners' flat pattern buffer and CanonicalOrder, its radix
// permutation. The oracle is the comparison sort that defined the
// canonical order before the radix permutation replaced it: a stable
// sort of the rows by (length, lexicographic items).
#include "fpm/pattern_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "fpm/miner.h"
#include "testing/pattern_buffers.h"
#include "util/random.h"

namespace divexp {
namespace {

using divexp::testing::BufferOf;
using divexp::testing::SameRows;

std::vector<uint32_t> OracleOrder(const PatternBuffer& buffer) {
  std::vector<uint32_t> order(buffer.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const ItemSpan ia = buffer.row_items(a);
    const ItemSpan ib = buffer.row_items(b);
    if (ia.size() != ib.size()) return ia.size() < ib.size();
    return std::lexicographical_compare(ia.begin(), ia.end(), ib.begin(),
                                        ib.end());
  });
  return order;
}

// `rows` random rows of 0..max_len sorted items below `range`; with
// `distinct`, no itemset repeats (as mined patterns never do).
PatternBuffer RandomBuffer(Rng& rng, size_t rows, size_t max_len,
                           uint64_t range, bool distinct) {
  PatternBuffer buffer;
  std::vector<Itemset> seen;
  while (buffer.size() < rows) {
    const size_t len = rng.Below(max_len + 1);
    Itemset items;
    for (size_t k = 0; k < len; ++k) {
      items.push_back(static_cast<uint32_t>(rng.Below(range)));
    }
    items = MakeItemset(std::move(items));
    if (distinct) {
      if (std::find(seen.begin(), seen.end(), items) != seen.end()) {
        continue;
      }
      seen.push_back(items);
    }
    buffer.Append(items, OutcomeCounts{buffer.size(), 1, 0});
  }
  return buffer;
}

TEST(CanonicalOrderTest, EdgeCases) {
  EXPECT_TRUE(CanonicalOrder(PatternBuffer()).empty());
  const PatternBuffer root = BufferOf({{Itemset{}, OutcomeCounts{1, 2, 3}}});
  EXPECT_EQ(CanonicalOrder(root), std::vector<uint32_t>{0});
  const PatternBuffer singletons = BufferOf(
      {{Itemset{7}, {}}, {Itemset{}, {}}, {Itemset{3}, {}}, {Itemset{5}, {}}});
  EXPECT_EQ(CanonicalOrder(singletons), (std::vector<uint32_t>{1, 2, 3, 0}));
  // Superset first, root last.
  const PatternBuffer reversed = BufferOf({{Itemset{0, 2}, {}},
                                           {Itemset{2}, {}},
                                           {Itemset{0}, {}},
                                           {Itemset{}, {}}});
  EXPECT_EQ(CanonicalOrder(reversed), (std::vector<uint32_t>{3, 2, 1, 0}));
}

TEST(CanonicalOrderTest, MatchesComparisonSortOnRandomBuffers) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 72; ++trial) {
    // max_length caps 1..9; dense item ranges from 2 to 300 ids. Rows
    // of up to 64 / bit_width(range) items pack into one radix key,
    // longer ones are sorted by comparison.
    const size_t max_len = 1 + trial % 9;
    const uint64_t range = 2 + rng.Below(300);
    const size_t rows = 1 + rng.Below(2000);
    // Distinct rows need enough itemsets to draw from.
    const bool distinct = trial % 2 == 0 && range > 40 && max_len >= 3;
    SCOPED_TRACE("trial " + std::to_string(trial) + " rows " +
                 std::to_string(rows) + " range " + std::to_string(range));
    const PatternBuffer buffer =
        RandomBuffer(rng, rows, max_len, range, distinct);
    EXPECT_EQ(CanonicalOrder(buffer), OracleOrder(buffer));
  }
}

TEST(CanonicalOrderTest, ShuffledCanonicalInputComesBack) {
  Rng rng(11);
  const PatternBuffer random = RandomBuffer(rng, 3000, 5, 60, true);
  PatternBuffer canonical;
  for (const uint32_t i : OracleOrder(random)) {
    canonical.Append(random.row_items(i), random.counts(i));
  }
  // Already canonical: the identity.
  std::vector<uint32_t> identity(canonical.size());
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(CanonicalOrder(canonical), identity);
  for (int shuffle = 0; shuffle < 5; ++shuffle) {
    std::vector<uint32_t> perm = identity;
    for (size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng.Below(k)]);
    }
    PatternBuffer shuffled;
    for (const uint32_t i : perm) {
      shuffled.Append(canonical.row_items(i), canonical.counts(i));
    }
    PatternBuffer restored;
    for (const uint32_t i : CanonicalOrder(shuffled)) {
      restored.Append(shuffled.row_items(i), shuffled.counts(i));
    }
    EXPECT_TRUE(SameRows(restored, canonical));
  }
}

TEST(CanonicalOrderTest, SparseLargeItemIds) {
  Rng rng(0x5EED);
  // Ids up to 2^16 take the radix passes when a length group holds
  // several times as many rows as there are ids; smaller groups, and
  // every group once ids pass 2^16, fall back to a comparison sort.
  for (const uint64_t range : {uint64_t{60000}, uint64_t{70000},
                               uint64_t{1} << 24, uint64_t{UINT32_MAX}}) {
    for (const size_t rows : {size_t{50}, size_t{30000}}) {
      SCOPED_TRACE("range " + std::to_string(range) + " rows " +
                   std::to_string(rows));
      const PatternBuffer buffer = RandomBuffer(rng, rows, 3, range, false);
      EXPECT_EQ(CanonicalOrder(buffer), OracleOrder(buffer));
    }
  }
  // Ids sharing their low 16 bits order by the high ones.
  const PatternBuffer high = BufferOf({{Itemset{0x30001}, {}},
                                       {Itemset{0x10001}, {}},
                                       {Itemset{0x20001}, {}}});
  EXPECT_EQ(CanonicalOrder(high), (std::vector<uint32_t>{1, 2, 0}));
}

TEST(CanonicalOrderTest, EqualItemsetsKeepInputOrder) {
  Rng rng(3);
  const PatternBuffer buffer = RandomBuffer(rng, 5000, 3, 6, false);
  const std::vector<uint32_t> order = CanonicalOrder(buffer);
  EXPECT_EQ(order, OracleOrder(buffer));
  for (size_t k = 1; k < order.size(); ++k) {
    if (std::ranges::equal(buffer.row_items(order[k - 1]),
                           buffer.row_items(order[k]))) {
      EXPECT_LT(order[k - 1], order[k]);
    }
  }
}

TEST(SortPatternsTest, MatchesCanonicalOrder) {
  Rng rng(5);
  const PatternBuffer buffer = RandomBuffer(rng, 1500, 4, 40, true);
  std::vector<MinedPattern> patterns = buffer.ToPatterns();
  SortPatterns(&patterns);
  PatternBuffer want;
  for (const uint32_t i : OracleOrder(buffer)) {
    want.Append(buffer.row_items(i), buffer.counts(i));
  }
  EXPECT_TRUE(SameRows(PatternBuffer(patterns), want));
}

TEST(PatternBufferTest, AppendTruncateAndConvert) {
  PatternBuffer buffer;
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.empty());
  buffer.Append(ItemSpan(), OutcomeCounts{5, 4, 1});
  buffer.Append(Itemset{1, 4}, OutcomeCounts{2, 1, 0});
  buffer.Append(Itemset{3}, OutcomeCounts{1, 1, 1});
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_TRUE(buffer.row_items(0).empty());
  EXPECT_EQ(Itemset(buffer.row_items(1).begin(), buffer.row_items(1).end()),
            (Itemset{1, 4}));
  EXPECT_EQ(buffer.counts(2), (OutcomeCounts{1, 1, 1}));

  // Concatenation shifts the appended offsets; an empty buffer adds
  // nothing.
  PatternBuffer joined = BufferOf({{Itemset{9}, OutcomeCounts{1, 0, 0}}});
  joined.Append(buffer);
  joined.Append(PatternBuffer());
  ASSERT_EQ(joined.size(), 4u);
  EXPECT_EQ(Itemset(joined.row_items(2).begin(), joined.row_items(2).end()),
            (Itemset{1, 4}));
  EXPECT_EQ(joined.counts(3), (OutcomeCounts{1, 1, 1}));

  // ToPatterns and the vector constructor are inverse.
  EXPECT_TRUE(SameRows(PatternBuffer(joined.ToPatterns()), joined));

  joined.Truncate(2);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_TRUE(SameRows(joined,
                       BufferOf({{Itemset{9}, OutcomeCounts{1, 0, 0}},
                                 {Itemset{}, OutcomeCounts{5, 4, 1}}})));
  joined.Truncate(5);  // no-op past the end
  EXPECT_EQ(joined.size(), 2u);
  joined.Release();
  EXPECT_TRUE(joined.empty());
}

TEST(PatternBufferTest, RowBytesCountsEveryColumn) {
  EXPECT_EQ(PatternBuffer::RowBytes(0), 8u + 3 * 8u);
  EXPECT_EQ(PatternBuffer::RowBytes(5), 5 * 4u + 8u + 3 * 8u);
}

}  // namespace
}  // namespace divexp
