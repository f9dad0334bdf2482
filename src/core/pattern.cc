#include "core/pattern.h"

#include <algorithm>
#include <ranges>
#include <utility>

#include "obs/trace.h"
#include "stats/beta.h"
#include "stats/welch.h"
#include "util/parallel.h"

namespace divexp {

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
    // The order is stable, so equal itemsets are adjacent.
    if (i > 0 && std::ranges::equal(items, table.row_items(i - 1))) {
      return Status::InvalidArgument("duplicate itemset in mined patterns");
    }
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

  // Post-index pass: the immediate-subset links (LinkSubsets), read
  // only from the frozen columns, so identical across thread counts.
  obs::StageTimer timer(options.stages, obs::kStagePostIndex);
  obs::ScopedSpan span(obs::kStagePostIndex);
  table.LinkSubsets(options.num_threads);
  timer.AddItems(n);
  // The links, and the two child-range columns LinkSubsets releases.
  timer.SetPeakBytes(table.subset_links_.size() * sizeof(uint32_t) +
                     2 * n * sizeof(uint32_t));
  return table;
}

void PatternTable::LinkSubsets(size_t num_threads) {
  const size_t n = size();
  subset_links_.assign(items_.size(), kNoLink);
  // The rows whose prefix (itemset minus its last item) is row q are
  // [child_begin[q], child_end[q]), ordered by their last item.
  std::vector<uint32_t> child_begin(n, 0);
  std::vector<uint32_t> child_end(n, 0);
  const auto last_item = [this](size_t r) { return row_items(r).back(); };
  // Length groups are contiguous; row 0, the empty itemset, is group 0.
  for (size_t prev = 0, begin = 1, end = 1; begin < n;
       prev = std::exchange(begin, end)) {
    const size_t len = row_items(begin).size();
    while (end < n && row_items(end).size() == len) ++end;
    // Last links: one merge walk of this group's prefixes, which are in
    // lexicographic order, against the previous group (which holds no
    // prefix if a truncation left no rows of length len - 1).
    for (size_t k = begin, q = prev; k < end; ++k) {
      const ItemSpan prefix = row_items(k).first(len - 1);
      while (q < begin &&
             std::ranges::lexicographical_compare(row_items(q), prefix)) {
        ++q;
      }
      if (q == begin || !std::ranges::equal(row_items(q), prefix)) continue;
      subset_links_[offsets_[k + 1] - 1] = static_cast<uint32_t>(q);
      if (child_end[q] == 0) child_begin[q] = static_cast<uint32_t>(k);
      child_end[q] = static_cast<uint32_t>(k + 1);
    }
    // Link j < len - 1 of K = (a_1..a_L) is K \ {a_j}: the child of
    // links(prefix)[j] whose last item is a_L. Without that base row (a
    // truncated table need not be downward closed) it is looked up.
    ParallelFor(num_threads, end - begin, [&, begin, len](size_t r) {
      const ItemSpan items = row_items(begin + r);
      uint32_t* links = subset_links_.data() + offsets_[begin + r];
      for (size_t j = 0; j + 1 < len; ++j) {
        const uint32_t base =
            links[len - 1] == kNoLink ? kNoLink : row_links(links[len - 1])[j];
        if (base == kNoLink) {
          Itemset subset(items.begin(), items.end());
          subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(j));
          links[j] = static_cast<uint32_t>(Find(subset).value_or(kNoLink));
          continue;
        }
        const auto children =
            std::views::iota(child_begin[base], child_end[base]);
        const auto child = std::ranges::lower_bound(children, items.back(),
                                                    {}, last_item);
        if (child != children.end() && last_item(*child) == items.back()) {
          links[j] = *child;
        }
      }
    });
  }
}

double PatternTable::t(size_t i) const {
  const OutcomeCounts c = counts(i);
  const BetaPosterior post = BetaPosteriorFromCounts(c.t, c.f);
  return WelchTFromPosteriors(post.mean, post.variance, global_mean_,
                              global_variance_);
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
