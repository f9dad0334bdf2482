// Corrective items (paper Def. 4.2): items whose addition *reduces* the
// absolute divergence of a pattern. Only a complete exploration can
// surface them — pruned searches never visit the corrected superset.
#ifndef DIVEXP_CORE_CORRECTIVE_H_
#define DIVEXP_CORE_CORRECTIVE_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// One corrective (base itemset, item) pair, as in paper Table 3.
struct CorrectiveItem {
  Itemset base;                 ///< I
  uint32_t item = 0;            ///< α ∉ I
  double base_divergence = 0.0; ///< Δ(I)
  double with_divergence = 0.0; ///< Δ(I ∪ {α})
  double factor = 0.0;          ///< |Δ(I)| − |Δ(I ∪ {α})| > 0
  double t = 0.0;               ///< significance of the corrected itemset
};

struct CorrectiveOptions {
  /// Keep only pairs with corrective factor above this value.
  double min_factor = 0.0;
  /// Keep only the first top_k pairs of the ranking; 0 = all. The paper
  /// ranks purely by corrective factor, so there is no other filter.
  size_t top_k = 0;
};

/// Scans any table read surface (core/pattern.h) for all corrective
/// (I, α) pairs, ranked by descending corrective factor (ties: shorter
/// base, then base items, then α). Both I and I ∪ {α} must be in the
/// table, which the complete exploration guarantees whenever the
/// superset is. Fails only when `guard` stops the scan or a served row
/// is corrupt.
template <typename Table>
Result<std::vector<CorrectiveItem>> ScanCorrectiveItems(
    const Table& table, const CorrectiveOptions& options = {},
    RunGuard* guard = nullptr) {
  obs::ScopedSpan span(obs::kStageCorrective);
  std::vector<CorrectiveItem> out;
  // Every superset K = I ∪ {α} in the table defines |K| candidate pairs
  // (drop each item in turn); enumerating supersets guarantees both
  // sides of the comparison are in the table. The base row I comes
  // straight off the lattice links; an itemset is materialized only
  // for the (rare) pairs that actually qualify.
  for (size_t i = 0; i < table.size(); ++i) {
    if (guard != nullptr && i % internal::kRowsPerTick == 0 &&
        !guard->Tick()) {
      return internal::GuardStopStatus(guard);
    }
    if (!table.row_ok(i)) {
      return internal::CorruptTableStatus("row " + std::to_string(i) +
                                          " has out-of-range offsets");
    }
    const ItemSpan k = table.row_items(i);
    if (k.empty()) continue;
    const std::span<const uint32_t> links = table.row_links(i);
    for (size_t j = 0; j < k.size(); ++j) {
      const uint32_t link = links[j];
      // kNoLink: subset dropped by a guard truncation — skip the pair.
      if (link == PatternTable::kNoLink) continue;
      if (link >= table.size() || !table.row_ok(link)) {
        return internal::CorruptTableStatus(
            "subset link " + std::to_string(link) + " under row " +
            std::to_string(i) + " is out of range");
      }
      const ItemSpan base_items = table.row_items(link);
      if (base_items.empty()) continue;  // Δ(∅) = 0: nothing to correct
      const double factor = std::fabs(table.divergence(link)) -
                            std::fabs(table.divergence(i));
      if (factor <= options.min_factor || factor <= 0.0) continue;
      CorrectiveItem c;
      c.base.assign(base_items.begin(), base_items.end());
      c.item = k[j];
      c.base_divergence = table.divergence(link);
      c.with_divergence = table.divergence(i);
      c.factor = factor;
      c.t = table.t(i);
      out.push_back(std::move(c));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CorrectiveItem& a, const CorrectiveItem& b) {
                     if (a.factor != b.factor) return a.factor > b.factor;
                     if (a.base.size() != b.base.size()) {
                       return a.base.size() < b.base.size();
                     }
                     if (a.base != b.base) return a.base < b.base;
                     return a.item < b.item;
                   });
  if (options.top_k != 0 && out.size() > options.top_k) {
    out.resize(options.top_k);
  }
  return out;
}

/// ScanCorrectiveItems over an in-memory table, which cannot fail.
std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options = {});

}  // namespace divexp

#endif  // DIVEXP_CORE_CORRECTIVE_H_
