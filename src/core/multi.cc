#include "core/multi.h"

#include <algorithm>
#include <string>
#include <utility>

namespace divexp {

OutcomeCounts ProjectOutcome(Metric metric, const ConfusionCounts& c) {
  OutcomeCounts o;
  switch (metric) {
    case Metric::kFalsePositiveRate:
      o = {c.fp, c.tn, c.tp + c.fn};
      break;
    case Metric::kFalseNegativeRate:
      o = {c.fn, c.tp, c.fp + c.tn};
      break;
    case Metric::kErrorRate:
      o = {c.fp + c.fn, c.tp + c.tn, 0};
      break;
    case Metric::kAccuracy:
      o = {c.tp + c.tn, c.fp + c.fn, 0};
      break;
    case Metric::kTruePositiveRate:
      o = {c.tp, c.fn, c.fp + c.tn};
      break;
    case Metric::kTrueNegativeRate:
      o = {c.tn, c.fp, c.tp + c.fn};
      break;
    case Metric::kPositivePredictiveValue:
      o = {c.tp, c.fp, c.tn + c.fn};
      break;
    case Metric::kFalseDiscoveryRate:
      o = {c.fp, c.tp, c.tn + c.fn};
      break;
    case Metric::kFalseOmissionRate:
      o = {c.fn, c.tn, c.tp + c.fp};
      break;
    case Metric::kNegativePredictiveValue:
      o = {c.tn, c.fn, c.tp + c.fp};
      break;
    case Metric::kPositiveRate:
      o = {c.tp + c.fn, c.fp + c.tn, 0};
      break;
    case Metric::kPredictedPositiveRate:
      o = {c.tp + c.fp, c.tn + c.fn, 0};
      break;
  }
  return o;
}

Result<MultiPatternTable> MultiPatternTable::Create(
    const PatternBuffer& negatives, const PatternBuffer& positives,
    ItemCatalog catalog, size_t num_rows) {
  if (negatives.size() != positives.size()) {
    return Status::Internal("channel pattern sets differ in size");
  }
  const std::vector<uint32_t> order = CanonicalOrder(negatives);
  if (order.empty() || !negatives.row_items(order[0]).empty()) {
    return Status::Internal("missing empty itemset");
  }
  MultiPatternTable table;
  table.catalog_ = std::move(catalog);
  table.num_rows_ = num_rows;
  table.offsets_.reserve(order.size() + 1);
  table.offsets_.push_back(0);
  table.counts_.reserve(order.size());
  for (const uint32_t row : order) {
    const ItemSpan items = negatives.row_items(row);
    if (!std::ranges::equal(items, positives.row_items(row))) {
      return Status::Internal("channel pattern sets disagree at row " +
                              std::to_string(row));
    }
    table.items_.insert(table.items_.end(), items.begin(), items.end());
    table.offsets_.push_back(table.items_.size());
    const OutcomeCounts neg = negatives.counts(row);
    const OutcomeCounts pos = positives.counts(row);
    table.counts_.push_back({pos.t, neg.t, neg.f, pos.f});
  }
  return table;
}

std::optional<size_t> MultiPatternTable::Find(ItemSpan items) const {
  return CanonicalFind(
      size(), [this](size_t i) { return row_items(i); }, items);
}

Result<double> MultiPatternTable::Divergence(Metric metric,
                                             ItemSpan items) const {
  const auto idx = Find(items);
  if (!idx.has_value()) {
    return Status::NotFound(
        "itemset not frequent: " +
        ItemsetDebugString(Itemset(items.begin(), items.end())));
  }
  return ProjectOutcome(metric, counts(*idx)).PositiveRate() -
         ProjectOutcome(metric, global_counts()).PositiveRate();
}

Result<PatternTable> MultiPatternTable::Project(Metric metric) const {
  // Rows go out in this table's canonical order, which Create detects
  // in one pass instead of sorting.
  PatternBuffer projected;
  projected.Reserve(size(), items_.size());
  for (size_t i = 0; i < size(); ++i) {
    projected.Append(row_items(i), ProjectOutcome(metric, counts(i)));
  }
  return PatternTable::Create(std::move(projected), catalog_, num_rows_);
}

Result<MultiPatternTable> MultiExplorer::Explore(
    const EncodedDataset& dataset, const std::vector<int>& predictions,
    const std::vector<int>& truths) const {
  DIVEXP_RETURN_NOT_OK(ValidateExplorerOptions(options_));
  if (predictions.size() != truths.size() ||
      predictions.size() != dataset.num_rows) {
    return Status::InvalidArgument("label vectors must match dataset rows");
  }
  if (dataset.num_rows == 0) {
    return Status::InvalidArgument("dataset has no rows");
  }
  // Channel 1 splits the negatives (FPR view: T=FP, F=TN, ⊥=v);
  // channel 2 splits the positives (TPR view: T=TP, F=FN, ⊥=¬v).
  // Together they determine the full confusion tally per pattern.
  DIVEXP_ASSIGN_OR_RETURN(
      std::vector<Outcome> neg_view,
      ComputeOutcomes(Metric::kFalsePositiveRate, predictions, truths));
  DIVEXP_ASSIGN_OR_RETURN(
      std::vector<Outcome> pos_view,
      ComputeOutcomes(Metric::kTruePositiveRate, predictions, truths));

  DIVEXP_ASSIGN_OR_RETURN(MiningSetup setup,
                          ResolveMining(dataset, options_));
  // One guard governs both mines, built as DivergenceExplorer builds
  // its own. A stopped mine is an error whatever on_limit says: the
  // channels would stop at different patterns and could not be zipped.
  RunGuard local_guard(options_.limits);
  RunGuard* guard = options_.guard != nullptr ? options_.guard
                    : options_.limits.unlimited() ? nullptr
                                                  : &local_guard;
  MinerOptions mopts = MinerOptionsFor(options_, setup.plan);
  mopts.guard = guard;

  const auto mine =
      [&](std::vector<Outcome> outcomes) -> Result<PatternBuffer> {
    DIVEXP_ASSIGN_OR_RETURN(
        TransactionDatabase db,
        TransactionDatabase::Create(dataset, std::move(outcomes)));
    return setup.miner->MineBuffer(db, mopts);
  };
  DIVEXP_ASSIGN_OR_RETURN(const PatternBuffer negatives,
                          mine(std::move(neg_view)));
  DIVEXP_ASSIGN_OR_RETURN(const PatternBuffer positives,
                          mine(std::move(pos_view)));
  if (guard != nullptr && guard->stopped()) return guard->ToStatus();
  return MultiPatternTable::Create(negatives, positives, dataset.catalog,
                                   dataset.num_rows);
}

}  // namespace divexp
