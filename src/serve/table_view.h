// Columnar, read-only view of a pattern table, as served from the
// mmap'd artifact (serve/artifact.h). Every span aliases storage owned
// by the artifact; a TableView is trivially copyable and never
// allocates.
//
// Rows are in *canonical order* (ascending itemset length, then
// lexicographic items — the order SortPatterns establishes before
// PatternTable::Create), which is what makes Find a binary search
// instead of a hash probe: the artifact needs no side index, so opening
// it deserializes nothing.
//
// A TableView provides the table read surface of core/pattern.h under
// the same names as PatternTable, so the core analyses (top-k, lattice,
// Shapley, corrective, fingerprint) run on it directly.
#ifndef DIVEXP_SERVE_TABLE_VIEW_H_
#define DIVEXP_SERVE_TABLE_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "data/encoder.h"
#include "fpm/itemset.h"
#include "fpm/transactions.h"

namespace divexp {
namespace serve {

/// Column indices into TableView::stats (4 doubles per row).
inline constexpr size_t kStatSupport = 0;
inline constexpr size_t kStatRate = 1;
inline constexpr size_t kStatDivergence = 2;
inline constexpr size_t kStatT = 3;

/// Non-owning columnar pattern table. All spans must stay valid for the
/// lifetime of the view (the owning artifact guarantees this).
struct TableView {
  /// Concatenated row itemsets; row i owns
  /// [item_offsets[i], item_offsets[i+1]).
  std::span<const uint32_t> items;
  std::span<const uint64_t> item_offsets;  ///< num_rows + 1 entries
  /// (t, f, bot) outcome tallies, 3 per row.
  std::span<const uint64_t> tallies;
  /// (support, rate, divergence, t), 4 per row — see kStat* above.
  std::span<const double> stats;
  /// Immediate-subset lattice links, aligned with `items`; row i owns
  /// [link_offsets[i], link_offsets[i+1]). kNoLink (UINT32_MAX) marks a
  /// subset dropped by guard truncation.
  std::span<const uint32_t> subset_links;
  std::span<const uint64_t> link_offsets;  ///< num_rows + 1 entries

  const ItemCatalog* catalog = nullptr;
  uint64_t num_dataset_rows = 0;
  double global_rate = 0.0;
  double global_mean = 0.0;
  double global_variance = 0.0;
  /// Logical-content fingerprint (core/table_fingerprint.h); the cache
  /// keys results under it so two artifacts of the same table share hits.
  uint64_t fingerprint = 0;

  size_t size() const {
    return item_offsets.empty() ? 0 : item_offsets.size() - 1;
  }

  // The row-span accessors clamp both offsets into the backing column:
  // a header-tier artifact open defers the payload CRCs, so a corrupted
  // offset entry must degrade to an empty/truncated span — never an
  // out-of-range subspan. The core analyses call row_ok() to turn such
  // corruption into a clean Status instead of a silently wrong answer.
  ItemSpan row_items(size_t i) const {
    const uint64_t limit = items.size();
    const uint64_t begin = std::min<uint64_t>(item_offsets[i], limit);
    const uint64_t end = std::min<uint64_t>(
        std::max(item_offsets[i + 1], begin), limit);
    return items.subspan(begin, end - begin);
  }
  std::span<const uint32_t> row_links(size_t i) const {
    const uint64_t limit = subset_links.size();
    const uint64_t begin = std::min<uint64_t>(link_offsets[i], limit);
    const uint64_t end = std::min<uint64_t>(
        std::max(link_offsets[i + 1], begin), limit);
    return subset_links.subspan(begin, end - begin);
  }

  /// Exact offset validity for row i: both offset pairs ordered, in
  /// range, and of equal length (the writer emits one link per item).
  /// False means the artifact's payload is corrupt in a way the
  /// header-tier open cannot see.
  bool row_ok(size_t i) const {
    const uint64_t ib = item_offsets[i];
    const uint64_t ie = item_offsets[i + 1];
    const uint64_t lb = link_offsets[i];
    const uint64_t le = link_offsets[i + 1];
    return ib <= ie && ie <= items.size() && lb <= le &&
           le <= subset_links.size() && ie - ib == le - lb;
  }

  OutcomeCounts counts(size_t i) const {
    return OutcomeCounts{tallies[3 * i], tallies[3 * i + 1],
                         tallies[3 * i + 2]};
  }

  double support(size_t i) const { return stats[4 * i + kStatSupport]; }
  double rate(size_t i) const { return stats[4 * i + kStatRate]; }
  double divergence(size_t i) const {
    return stats[4 * i + kStatDivergence];
  }
  double t(size_t i) const { return stats[4 * i + kStatT]; }

  /// True when row i's itemset orders strictly before `q` in canonical
  /// order (length first, then lexicographic).
  bool RowLess(size_t i, ItemSpan q) const {
    const ItemSpan r = row_items(i);
    if (r.size() != q.size()) return r.size() < q.size();
    return std::lexicographical_compare(r.begin(), r.end(), q.begin(),
                                        q.end());
  }

  /// Row index of an itemset via binary search over the canonical
  /// order; O(log n * |q|), no allocation, no side index.
  std::optional<size_t> Find(ItemSpan q) const {
    size_t lo = 0;
    size_t hi = size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (RowLess(mid, q)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= size()) return std::nullopt;
    const ItemSpan r = row_items(lo);
    if (r.size() != q.size() ||
        !std::equal(r.begin(), r.end(), q.begin())) {
      return std::nullopt;
    }
    return lo;
  }
};

}  // namespace serve
}  // namespace divexp

#endif  // DIVEXP_SERVE_TABLE_VIEW_H_
