#include "core/multi.h"

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

std::optional<size_t> MultiPatternTable::Find(const Itemset& items) const {
  auto it = index_.find(items);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<double> MultiPatternTable::Rate(Metric metric,
                                       const Itemset& items) const {
  auto idx = Find(items);
  if (!idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  return ProjectOutcome(metric, rows_[*idx].counts).PositiveRate();
}

Result<double> MultiPatternTable::Divergence(Metric metric,
                                             const Itemset& items) const {
  DIVEXP_ASSIGN_OR_RETURN(double rate, Rate(metric, items));
  return rate - ProjectOutcome(metric, global_).PositiveRate();
}

Result<PatternTable> MultiPatternTable::Project(Metric metric) const {
  std::vector<MinedPattern> mined;
  mined.reserve(rows_.size());
  for (const MultiPatternRow& row : rows_) {
    mined.push_back(
        MinedPattern{row.items, ProjectOutcome(metric, row.counts)});
  }
  return PatternTable::Create(std::move(mined), catalog_, num_rows_);
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

  MinerOptions mopts;
  mopts.min_support = options_.min_support;
  mopts.max_length = options_.max_length;
  DIVEXP_ASSIGN_OR_RETURN(MiningSetup setup,
                          ResolveMining(dataset, options_));
  const std::unique_ptr<FrequentPatternMiner>& miner = setup.miner;

  DIVEXP_ASSIGN_OR_RETURN(
      TransactionDatabase db1,
      TransactionDatabase::Create(dataset, std::move(neg_view)));
  DIVEXP_ASSIGN_OR_RETURN(std::vector<MinedPattern> mined1,
                          miner->Mine(db1, mopts));
  DIVEXP_ASSIGN_OR_RETURN(
      TransactionDatabase db2,
      TransactionDatabase::Create(dataset, std::move(pos_view)));
  DIVEXP_ASSIGN_OR_RETURN(std::vector<MinedPattern> mined2,
                          miner->Mine(db2, mopts));

  // Same dataset, same support threshold: both runs enumerate exactly
  // the same frequent itemsets (support is outcome-independent).
  if (mined1.size() != mined2.size()) {
    return Status::Internal("channel pattern sets differ in size");
  }
  std::unordered_map<Itemset, OutcomeCounts, ItemsetHash> pos_index;
  pos_index.reserve(mined2.size());
  for (MinedPattern& p : mined2) {
    pos_index.emplace(std::move(p.items), p.counts);
  }

  MultiPatternTable table;
  table.catalog_ = dataset.catalog;
  table.num_rows_ = dataset.num_rows;
  table.rows_.reserve(mined1.size());
  table.index_.reserve(mined1.size());
  const double denom = static_cast<double>(dataset.num_rows);
  for (MinedPattern& p : mined1) {
    auto it = pos_index.find(p.items);
    if (it == pos_index.end()) {
      return Status::Internal("channel pattern sets disagree");
    }
    MultiPatternRow row;
    row.counts.fp = p.counts.t;
    row.counts.tn = p.counts.f;
    row.counts.tp = it->second.t;
    row.counts.fn = it->second.f;
    row.support = static_cast<double>(row.counts.total()) / denom;
    row.items = std::move(p.items);
    table.index_.emplace(row.items, table.rows_.size());
    table.rows_.push_back(std::move(row));
  }
  const auto root = table.Find(Itemset{});
  if (!root.has_value()) {
    return Status::Internal("missing empty itemset");
  }
  table.global_ = table.rows_[*root].counts;
  return table;
}

}  // namespace divexp
