// Multi-metric exploration (paper §5: "It is straightforward to extend
// Algorithm 1 to efficiently compute the f-divergence of multiple
// outcome functions simultaneously").
//
// All classification metrics supported by DivExplorer are functions of
// the per-pattern confusion counts (TP, FP, TN, FN). Mining those four
// tallies once therefore yields the divergence of *every* metric at
// once; the MultiPatternTable projects any Metric into a standard
// PatternTable (with significance) without re-mining.
//
// The table is columnar and in canonical order, like PatternTable: flat
// u32 items, u64 offsets and one ConfusionCounts per row, so no row owns
// a heap object, Find is a binary search (CanonicalFind) and Project
// hands PatternTable::Create rows that are already canonical.
#ifndef DIVEXP_CORE_MULTI_H_
#define DIVEXP_CORE_MULTI_H_

#include <optional>
#include <vector>

#include "core/explorer.h"
#include "core/pattern.h"

namespace divexp {

/// Confusion-cell tallies of one pattern.
struct ConfusionCounts {
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t tn = 0;
  uint64_t fn = 0;

  uint64_t total() const { return tp + fp + tn + fn; }
  friend bool operator==(const ConfusionCounts&,
                         const ConfusionCounts&) = default;
};

/// Projects confusion counts onto a metric's (T, F, ⊥) outcome tallies
/// (the inverse of Def. 3.2's per-instance mapping, applied to counts).
OutcomeCounts ProjectOutcome(Metric metric, const ConfusionCounts& c);

/// Pattern table carrying full confusion counts: any metric's rate,
/// divergence and significance can be read off without re-mining.
class MultiPatternTable {
 public:
  /// Zips the two outcome channels MultiExplorer mines, `negatives`
  /// with (T, F) = (FP, TN) and `positives` with (T, F) = (TP, FN), into
  /// canonical order. Support does not depend on the outcome, so both
  /// mines emit the same itemsets in the same order: row i must hold
  /// the same items in both, and the empty itemset must be present, or
  /// the result is Internal.
  static Result<MultiPatternTable> Create(const PatternBuffer& negatives,
                                          const PatternBuffer& positives,
                                          ItemCatalog catalog,
                                          size_t num_rows);

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  ItemSpan row_items(size_t i) const {
    return ItemSpan(items_).subspan(offsets_[i],
                                    offsets_[i + 1] - offsets_[i]);
  }
  const ConfusionCounts& counts(size_t i) const { return counts_[i]; }
  const ItemCatalog& catalog() const { return catalog_; }
  size_t num_dataset_rows() const { return num_rows_; }
  /// The empty itemset's counts: the whole dataset's confusion matrix.
  const ConfusionCounts& global_counts() const { return counts_[0]; }

  /// Row index of an itemset, if frequent.
  std::optional<size_t> Find(ItemSpan items) const;

  /// Δ_metric(I) for a frequent itemset; NotFound otherwise.
  Result<double> Divergence(Metric metric, ItemSpan items) const;

  /// Full single-metric PatternTable (with Welch t), equal to
  /// DivergenceExplorer::Explore's for `metric` — plugs into all
  /// downstream tools (Shapley, global divergence, pruning, lattices).
  Result<PatternTable> Project(Metric metric) const;

 private:
  MultiPatternTable() = default;  // Create builds every table

  std::vector<uint32_t> items_;
  std::vector<uint64_t> offsets_;
  std::vector<ConfusionCounts> counts_;
  ItemCatalog catalog_;
  size_t num_rows_ = 0;
};

/// Runs Algorithm 1 once (two complementary outcome channels, both
/// mined with the resolved plan) and returns the multi-metric table.
/// A dataset with no rows is InvalidArgument, as in the other explorers.
/// Both mines run under one RunGuard, `options.guard` or else one built
/// from `options.limits`. Once it stops, Explore returns its ToStatus()
/// whatever `on_limit` says: truncated channels cannot be zipped, so no
/// multi table is truncated or escalated. Checkpoints are not used.
class MultiExplorer {
 public:
  explicit MultiExplorer(ExplorerOptions options = {})
      : options_(options) {}

  Result<MultiPatternTable> Explore(const EncodedDataset& dataset,
                                    const std::vector<int>& predictions,
                                    const std::vector<int>& truths) const;

 private:
  ExplorerOptions options_;
};

}  // namespace divexp

#endif  // DIVEXP_CORE_MULTI_H_
