// The pattern table's column layout, and the row accessors written once
// over it. PatternTable (core/pattern.h) owns the columns in vectors;
// the served artifact (serve/artifact.h) stores the same columns as
// file sections and serve::TableView reads them through spans into the
// mmap. Writing an artifact is therefore a copy of each column.
//
//   column        type  per row
//   items         u32   |I| item ids; row i owns
//                       [item_offsets[i], item_offsets[i+1])
//   item_offsets  u64   1, plus a final sentinel
//   tallies       u64   kTalliesPerRow: (t, f, bot)
//   stats         f64   kStatsPerRow: (support, rate, divergence, t)
//   subset_links  u32   |I|, aligned with items; row i owns
//                       [link_offsets[i], link_offsets[i+1])
//   link_offsets  u64   1, plus a final sentinel
//
// Links are aligned with items, so an in-memory table has one offsets
// array and hands it out as both item_offsets and link_offsets. The
// artifact stores the two sections separately; TableView::row_ok
// rejects a corrupt file where they disagree.
#ifndef DIVEXP_CORE_TABLE_COLUMNS_H_
#define DIVEXP_CORE_TABLE_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "fpm/pattern_buffer.h"
#include "fpm/transactions.h"

namespace divexp {

// kTalliesPerRow, the tallies per row, comes with the miners' buffer
// (fpm/pattern_buffer.h), whose columns these continue.

/// Statistics per row, at the column indices below.
inline constexpr size_t kStatsPerRow = 4;
inline constexpr size_t kStatSupport = 0;
inline constexpr size_t kStatRate = 1;
inline constexpr size_t kStatDivergence = 2;
inline constexpr size_t kStatT = 3;

/// Read-only spans over the columns of one pattern table. The per-row
/// item and link spans are left to the owner: a PatternTable indexes
/// them directly, a served view clamps them against corrupt offsets.
struct TableColumns {
  std::span<const uint32_t> items;
  std::span<const uint64_t> item_offsets;  ///< num_rows + 1 entries
  std::span<const uint64_t> tallies;
  std::span<const double> stats;
  /// kNoLink (UINT32_MAX) marks a subset dropped by guard truncation.
  std::span<const uint32_t> subset_links;
  std::span<const uint64_t> link_offsets;  ///< num_rows + 1 entries

  size_t size() const {
    return item_offsets.empty() ? 0 : item_offsets.size() - 1;
  }

  OutcomeCounts counts(size_t i) const {
    const size_t at = kTalliesPerRow * i;
    return OutcomeCounts{tallies[at], tallies[at + 1], tallies[at + 2]};
  }
  double support(size_t i) const { return stat(i, kStatSupport); }
  double rate(size_t i) const { return stat(i, kStatRate); }
  double divergence(size_t i) const { return stat(i, kStatDivergence); }
  double t(size_t i) const { return stat(i, kStatT); }

 private:
  double stat(size_t i, size_t column) const {
    return stats[kStatsPerRow * i + column];
  }
};

}  // namespace divexp

#endif  // DIVEXP_CORE_TABLE_COLUMNS_H_
