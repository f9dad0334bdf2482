#include "core/pattern.h"

#include <algorithm>

#include "obs/trace.h"
#include "stats/beta.h"
#include "stats/welch.h"
#include "util/parallel.h"

namespace divexp {
namespace {

// Actual heap + inline footprint of one table row: the row struct, the
// itemset's heap buffer, and its slot in the flat subset-link array.
uint64_t RowFootprintBytes(const PatternRow& row) {
  return sizeof(PatternRow) +
         row.items.capacity() * sizeof(uint32_t) +  // items heap buffer
         row.items.size() * sizeof(uint32_t);       // subset-link slots
}

}  // namespace

Result<PatternTable> PatternTable::Create(std::vector<MinedPattern> mined,
                                          ItemCatalog catalog,
                                          size_t num_rows,
                                          RunGuard* guard,
                                          const PatternTableOptions& options) {
  // Only enforce limits that are still live: when mining already
  // breached, the post-pass must still process the partial pattern set
  // (bounded by what mining emitted) so truncate mode has a table.
  const bool enforce = guard != nullptr && !guard->hard_stopped();
  PatternTable table;
  table.catalog_ = std::move(catalog);
  table.num_dataset_rows_ = num_rows;

  // Locate the empty itemset to fix the global rate.
  const MinedPattern* root = nullptr;
  for (const MinedPattern& p : mined) {
    if (p.items.empty()) {
      root = &p;
      break;
    }
  }
  if (root == nullptr) {
    return Status::InvalidArgument(
        "mined patterns must include the empty itemset");
  }
  if (mined.size() >= static_cast<size_t>(kNoLink)) {
    return Status::InvalidArgument("pattern table exceeds link capacity");
  }
  table.global_rate_ = root->counts.PositiveRate();
  const BetaPosterior global_post =
      BetaPosteriorFromCounts(root->counts.t, root->counts.f);
  table.global_mean_ = global_post.mean;
  table.global_variance_ = global_post.variance;

  table.rows_.reserve(mined.size());
  table.index_.reserve(mined.size());
  for (MinedPattern& p : mined) {
    PatternRow row;
    row.counts = p.counts;
    row.items = std::move(p.items);
    // The first row (the empty itemset) is always kept so a truncated
    // table still carries the global rate.
    if (enforce && !table.rows_.empty() &&
        (!guard->Tick() || !guard->AddMemory(RowFootprintBytes(row)))) {
      break;  // partial table; the guard has latched the breach
    }
    const auto [it, inserted] =
        table.index_.emplace(row.items, table.rows_.size());
    if (!inserted) {
      return Status::InvalidArgument("duplicate itemset in mined patterns");
    }
    table.rows_.push_back(std::move(row));
  }

  // Post-index pass: per-row stats (Beta posterior + Welch t) and the
  // immediate-subset lattice links. Both are pure per-row computations
  // over the now-frozen row set, so they parallelize with results
  // identical across thread counts.
  obs::StageTimer timer(options.stages, obs::kStagePostIndex);
  obs::ScopedSpan span(obs::kStagePostIndex);
  const size_t n = table.rows_.size();
  const double denom =
      num_rows == 0 ? 1.0 : static_cast<double>(num_rows);

  table.link_offsets_.resize(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    table.link_offsets_[i + 1] =
        table.link_offsets_[i] + table.rows_[i].items.size();
  }
  table.subset_links_.assign(table.link_offsets_[n], kNoLink);

  ParallelFor(options.num_threads, n, [&table, denom](size_t i) {
    PatternRow& row = table.rows_[i];
    row.support = static_cast<double>(row.counts.total()) / denom;
    row.rate = row.counts.PositiveRate();
    row.divergence = row.rate - table.global_rate_;
    const BetaPosterior post =
        BetaPosteriorFromCounts(row.counts.t, row.counts.f);
    row.t = WelchTFromPosteriors(post.mean, post.variance,
                                 table.global_mean_,
                                 table.global_variance_);
    const ItemSpan items(row.items);
    uint32_t* links = table.subset_links_.data() + table.link_offsets_[i];
    for (size_t j = 0; j < items.size(); ++j) {
      // kNoLink stays only when a guard truncation dropped the subset.
      const auto sub = table.Find(ItemsetSkipView{items, j});
      if (sub.has_value()) links[j] = static_cast<uint32_t>(*sub);
    }
  });
  timer.AddItems(n);
  timer.SetPeakBytes(table.subset_links_.size() * sizeof(uint32_t));
  return table;
}

std::optional<size_t> PatternTable::Find(const Itemset& items) const {
  auto it = index_.find(items);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<size_t> PatternTable::Find(ItemSpan items) const {
  auto it = index_.find(items);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<size_t> PatternTable::Find(const ItemsetSkipView& view) const {
  auto it = index_.find(view);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Result<double> PatternTable::Divergence(const Itemset& items) const {
  auto idx = Find(items);
  if (!idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  return rows_[*idx].divergence;
}

std::vector<size_t> PatternTable::Rank(RankKey key,
                                       bool descending) const {
  TopKQuery query;
  query.k = rows_.size();
  query.key = key;
  query.descending = descending;
  return TopKRows(*this, query).value();
}

std::vector<size_t> PatternTable::RankByDivergence(bool descending) const {
  return Rank(RankKey::kDivergence, descending);
}

std::vector<size_t> PatternTable::TopK(size_t k, bool descending,
                                       double min_support, size_t min_len,
                                       size_t max_len) const {
  TopKQuery query;
  query.k = k;
  query.descending = descending;
  query.min_support = min_support;
  query.min_len = min_len;
  query.max_len = max_len;
  return TopKRows(*this, query).value();
}

std::string PatternTable::ItemsetName(const Itemset& items) const {
  return divexp::ItemsetName(catalog_, ItemSpan(items));
}

Result<Itemset> PatternTable::ParseItemset(
    const std::vector<std::pair<std::string, std::string>>& items) const {
  return divexp::ParseItemset(catalog_, items);
}

std::string ItemName(const ItemCatalog& catalog, uint32_t item) {
  if (item >= catalog.num_items()) {
    return "<item " + std::to_string(item) + " outside catalog>";
  }
  return catalog.ItemName(item);
}

std::string ItemsetName(const ItemCatalog& catalog, ItemSpan items) {
  if (items.empty()) return "(all)";
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += ItemName(catalog, items[i]);
  }
  return out;
}

Result<Itemset> ParseItemset(
    const ItemCatalog& catalog,
    const std::vector<std::pair<std::string, std::string>>& items) {
  std::vector<uint32_t> ids;
  ids.reserve(items.size());
  for (const auto& [attr, value] : items) {
    DIVEXP_ASSIGN_OR_RETURN(uint32_t id, catalog.FindItem(attr, value));
    ids.push_back(id);
  }
  return MakeItemset(std::move(ids));
}

namespace internal {

Status GuardStopStatus(RunGuard* guard) {
  const Status status = guard->ToStatus();
  if (!status.ok()) return status;
  // Tick() said stop but no breach latched yet (racy deadline read);
  // report the generic form rather than OK.
  return Status::DeadlineExceeded("query stopped by its run guard");
}

Status CorruptTableStatus(const std::string& what) {
  // A header-tier artifact open defers payload CRCs, so offset/link
  // corruption can first surface mid-analysis.
  return Status::InvalidArgument(
      "artifact payload corruption detected while serving (" + what +
      "); reopen with full validation for a complete diagnosis");
}

}  // namespace internal

}  // namespace divexp
