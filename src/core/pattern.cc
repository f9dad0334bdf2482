#include "core/pattern.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"
#include "stats/beta.h"
#include "stats/welch.h"
#include "util/parallel.h"

namespace divexp {
namespace {

// Fibonacci hashing: ItemsetHash mixes weakly into its low bits, so the
// slot comes from the top bits of one multiply.
size_t SlotOf(size_t hash, int shift) {
  return static_cast<size_t>((static_cast<uint64_t>(hash) *
                              0x9E3779B97F4A7C15ull) >> shift);
}

int IndexShift(size_t slots) {
  return 64 - std::countr_zero(static_cast<uint64_t>(slots));
}

}  // namespace

Result<PatternTable> PatternTable::Create(std::vector<MinedPattern> mined,
                                          ItemCatalog catalog,
                                          size_t num_rows,
                                          RunGuard* guard,
                                          const PatternTableOptions& options) {
  PatternBuffer buffer(mined);
  std::vector<MinedPattern>().swap(mined);
  return Create(std::move(buffer), std::move(catalog), num_rows, guard,
                options);
}

Result<PatternTable> PatternTable::Create(PatternBuffer mined,
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
  if (mined.size() >= static_cast<size_t>(kNoLink)) {
    return Status::InvalidArgument("pattern table exceeds link capacity");
  }

  obs::StageTimer order_timer(options.stages, obs::kStageOrder);
  obs::ScopedSpan order_span(obs::kStageOrder);
  const std::vector<uint32_t> order = CanonicalOrder(mined);
  // The empty itemset, if present, sorts first; it fixes the global
  // rate.
  if (order.empty() || !mined.row_items(order[0]).empty()) {
    return Status::InvalidArgument(
        "mined patterns must include the empty itemset");
  }
  const OutcomeCounts root = mined.counts(order[0]);
  table.global_rate_ = root.PositiveRate();
  const BetaPosterior global_post = BetaPosteriorFromCounts(root.t, root.f);
  table.global_mean_ = global_post.mean;
  table.global_variance_ = global_post.variance;

  // Rows are kept in canonical order until the guard trips. The first
  // row (the empty itemset) is always kept so a truncated table still
  // carries the global rate.
  size_t n = 0;
  size_t total_items = 0;
  for (const uint32_t row : order) {
    const size_t len = mined.row_items(row).size();
    if (enforce && n > 0 &&
        (!guard->Tick() || !guard->AddMemory(RowBytes(len)))) {
      break;  // partial table; the guard has latched the breach
    }
    total_items += len;
    ++n;
  }
  // Gather the kept rows into the columns: the one copy of the mined
  // patterns, after which the buffer is released.
  table.items_.resize(total_items);
  table.offsets_.resize(n + 1);
  table.tallies_.resize(kTalliesPerRow * n);
  uint64_t at = 0;
  table.offsets_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    const ItemSpan items = mined.row_items(order[i]);
    std::copy(items.begin(), items.end(), table.items_.begin() + at);
    at += items.size();
    table.offsets_[i + 1] = at;
    const OutcomeCounts counts = mined.counts(order[i]);
    uint64_t* tallies = table.tallies_.data() + kTalliesPerRow * i;
    tallies[0] = counts.t;
    tallies[1] = counts.f;
    tallies[2] = counts.bot;
  }
  mined.Release();
  order_timer.AddItems(n);
  order_timer.Finish();
  order_span.End();
  DIVEXP_RETURN_NOT_OK(table.BuildIndex());

  // Post-index pass: per-row stats (Beta posterior + Welch t) and the
  // immediate-subset lattice links. Both are pure per-row computations
  // over the now-frozen row set, so they parallelize with results
  // identical across thread counts.
  obs::StageTimer timer(options.stages, obs::kStagePostIndex);
  obs::ScopedSpan span(obs::kStagePostIndex);
  const double denom =
      num_rows == 0 ? 1.0 : static_cast<double>(num_rows);
  table.stats_.resize(kStatsPerRow * n);
  table.subset_links_.assign(total_items, kNoLink);

  ParallelFor(options.num_threads, n, [&table, denom](size_t i) {
    const OutcomeCounts counts = table.counts(i);
    double* stats = table.stats_.data() + kStatsPerRow * i;
    const double rate = counts.PositiveRate();
    stats[kStatSupport] = static_cast<double>(counts.total()) / denom;
    stats[kStatRate] = rate;
    stats[kStatDivergence] = rate - table.global_rate_;
    const BetaPosterior post = BetaPosteriorFromCounts(counts.t, counts.f);
    stats[kStatT] =
        WelchTFromPosteriors(post.mean, post.variance, table.global_mean_,
                             table.global_variance_);
    const ItemSpan items = table.row_items(i);
    uint32_t* links = table.subset_links_.data() + table.offsets_[i];
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

Status PatternTable::BuildIndex() {
  const size_t n = size();
  size_t slots = 2;
  while (slots < 2 * n) slots *= 2;
  index_.assign(slots, kNoLink);
  const size_t mask = slots - 1;
  const int shift = IndexShift(slots);
  for (size_t r = 0; r < n; ++r) {
    const ItemSpan items = row_items(r);
    size_t s = SlotOf(ItemsetHash{}(items), shift);
    for (; index_[s] != kNoLink; s = (s + 1) & mask) {
      if (ItemsetEq{}(row_items(index_[s]), items)) {
        return Status::InvalidArgument(
            "duplicate itemset in mined patterns");
      }
    }
    index_[s] = static_cast<uint32_t>(r);
  }
  return Status::OK();
}

template <typename Key>
std::optional<size_t> PatternTable::Probe(const Key& key) const {
  if (index_.empty()) return std::nullopt;
  const size_t mask = index_.size() - 1;
  for (size_t s = SlotOf(ItemsetHash{}(key), IndexShift(index_.size()));
       index_[s] != kNoLink; s = (s + 1) & mask) {
    if (ItemsetEq{}(row_items(index_[s]), key)) return index_[s];
  }
  return std::nullopt;
}

std::optional<size_t> PatternTable::Find(ItemSpan items) const {
  return Probe(items);
}

std::optional<size_t> PatternTable::Find(const ItemsetSkipView& view) const {
  return Probe(view);
}

PatternRow PatternTable::row(size_t i) const {
  const ItemSpan items = row_items(i);
  PatternRow out;
  out.items.assign(items.begin(), items.end());
  out.counts = counts(i);
  out.support = support(i);
  out.rate = rate(i);
  out.divergence = divergence(i);
  out.t = t(i);
  return out;
}

Result<double> PatternTable::Divergence(const Itemset& items) const {
  auto idx = Find(items);
  if (!idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  return divergence(*idx);
}

std::vector<size_t> PatternTable::Rank(RankKey key,
                                       bool descending) const {
  TopKQuery query;
  query.k = size();
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
