// Multi-metric exploration (paper §5: "It is straightforward to extend
// Algorithm 1 to efficiently compute the f-divergence of multiple
// outcome functions simultaneously").
//
// All classification metrics supported by DivExplorer are functions of
// the per-pattern confusion counts (TP, FP, TN, FN). Mining those four
// tallies once therefore yields the divergence of *every* metric at
// once; the MultiPatternTable projects any Metric into a standard
// PatternTable (with significance) without re-mining.
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

/// One row of the multi-metric pattern table.
struct MultiPatternRow {
  Itemset items;
  ConfusionCounts counts;
  double support = 0.0;
};

/// Pattern table carrying full confusion counts: any metric's rate,
/// divergence and significance can be read off without re-mining.
class MultiPatternTable {
 public:
  size_t size() const { return rows_.size(); }
  const MultiPatternRow& row(size_t i) const { return rows_[i]; }
  const ItemCatalog& catalog() const { return catalog_; }
  size_t num_dataset_rows() const { return num_rows_; }
  const ConfusionCounts& global_counts() const { return global_; }

  std::optional<size_t> Find(const Itemset& items) const;

  /// f_metric(I) for a frequent itemset.
  Result<double> Rate(Metric metric, const Itemset& items) const;

  /// Δ_metric(I) for a frequent itemset.
  Result<double> Divergence(Metric metric, const Itemset& items) const;

  /// Full single-metric PatternTable (with Welch t) — plugs into all
  /// downstream tools (Shapley, global divergence, pruning, lattices).
  Result<PatternTable> Project(Metric metric) const;

 private:
  friend class MultiExplorer;
  std::vector<MultiPatternRow> rows_;
  std::unordered_map<Itemset, size_t, ItemsetHash> index_;
  ItemCatalog catalog_;
  size_t num_rows_ = 0;
  ConfusionCounts global_;
};

/// Runs Algorithm 1 once (two complementary outcome channels over a
/// single transaction construction) and returns the multi-metric table.
/// A dataset with no rows is InvalidArgument, as in the other explorers.
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
