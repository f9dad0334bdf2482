#include "core/shapley.h"

#include <algorithm>

namespace divexp {

Result<double> MarginalContribution(const PatternTable& table,
                                    const Itemset& items, uint32_t alpha) {
  const auto row_idx = table.Find(items);
  if (!row_idx.has_value()) {
    return Status::NotFound("itemset not frequent: " +
                            ItemsetDebugString(items));
  }
  const Itemset& k = table.row(*row_idx).items;
  const auto pos = std::lower_bound(k.begin(), k.end(), alpha);
  if (pos == k.end() || *pos != alpha) {
    return Status::NotFound("item not in itemset: " +
                            ItemsetDebugString(items));
  }
  const uint32_t link =
      table.row_links(*row_idx)[static_cast<size_t>(pos - k.begin())];
  if (link == PatternTable::kNoLink) {
    return Status::NotFound("subset dropped by truncation under " +
                            ItemsetDebugString(items));
  }
  return table.row(*row_idx).divergence - table.row(link).divergence;
}

}  // namespace divexp
