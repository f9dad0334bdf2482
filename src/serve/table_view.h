// Columnar, read-only view of a pattern table, as served from the
// mmap'd artifact (serve/artifact.h). Every span aliases storage owned
// by the artifact; a TableView is trivially copyable and never
// allocates.
//
// Rows are in *canonical order* (ascending itemset length, then
// lexicographic items — the order PatternTable::Create establishes),
// which is what makes Find a binary search
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

#include "core/table_columns.h"
#include "data/encoder.h"
#include "fpm/itemset.h"

namespace divexp {
namespace serve {

/// Non-owning columnar pattern table: the columns of
/// core/table_columns.h as spans into the artifact, whose accessors
/// (counts, support, rate, divergence, t) it inherits. All spans must
/// stay valid for the lifetime of the view (the owning artifact
/// guarantees this).
struct TableView : TableColumns {
  const ItemCatalog* catalog = nullptr;
  uint64_t num_dataset_rows = 0;
  double global_rate = 0.0;
  double global_mean = 0.0;
  double global_variance = 0.0;
  /// Logical-content fingerprint (core/table_fingerprint.h); the cache
  /// keys results under it so two artifacts of the same table share hits.
  uint64_t fingerprint = 0;

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
    const uint64_t begin = std::min<uint64_t>(item_offsets[i], limit);
    const uint64_t end = std::min<uint64_t>(
        std::max(item_offsets[i + 1], begin), limit);
    return subset_links.subspan(begin, end - begin);
  }

  /// Exact offset validity for row i: the offset pair ordered and in
  /// range. Links are aligned with items, and the artifact open checks
  /// that the two columns are the same length, so this covers
  /// row_links(i) too. False means the artifact's payload is corrupt in
  /// a way the header-tier open cannot see.
  bool row_ok(size_t i) const {
    return item_offsets[i] <= item_offsets[i + 1] &&
           item_offsets[i + 1] <= items.size();
  }

  /// Row index of an itemset via binary search over the canonical
  /// order (CanonicalFind); O(log n * |q|), no allocation, no side
  /// index.
  std::optional<size_t> Find(ItemSpan q) const {
    return CanonicalFind(
        size(), [this](size_t i) { return row_items(i); }, q);
  }
};

}  // namespace serve
}  // namespace divexp

#endif  // DIVEXP_SERVE_TABLE_VIEW_H_
