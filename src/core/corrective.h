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

namespace internal {

/// A qualifying (I, α) pair before its base itemset is copied out: I is
/// row `base`, I ∪ {α} is row `with`.
struct CorrectiveCandidate {
  double factor = 0.0;
  size_t with = 0;
  uint32_t base = 0;
  uint32_t item = 0;
};

}  // namespace internal

/// Scans any table read surface (core/pattern.h) for all corrective
/// (I, α) pairs, ranked by descending corrective factor (ties: shorter
/// base, then base items, then α — a strict total order, since each
/// pair is a distinct (row, item)). Both I and I ∪ {α} must be in the
/// table, which the complete exploration guarantees whenever the
/// superset is. With options.top_k set, only the best top_k candidates
/// are held (a bounded heap), and only the pairs returned copy their
/// base itemset. Fails only when `guard` stops the scan or a served row
/// is corrupt.
template <typename Table>
Result<std::vector<CorrectiveItem>> ScanCorrectiveItems(
    const Table& table, const CorrectiveOptions& options = {},
    RunGuard* guard = nullptr) {
  using internal::CorrectiveCandidate;
  obs::ScopedSpan span(obs::kStageCorrective);
  // True when `a` ranks before `b`.
  const auto before = [&table](const CorrectiveCandidate& a,
                               const CorrectiveCandidate& b) {
    if (a.factor != b.factor) return a.factor > b.factor;
    const ItemSpan base_a = table.row_items(a.base);
    const ItemSpan base_b = table.row_items(b.base);
    if (base_a.size() != base_b.size()) return base_a.size() < base_b.size();
    const auto [ia, ib] = std::mismatch(base_a.begin(), base_a.end(),
                                        base_b.begin(), base_b.end());
    if (ia != base_a.end()) return *ia < *ib;
    return a.item < b.item;
  };
  const size_t k = options.top_k;
  std::vector<CorrectiveCandidate> kept;
  // Every superset K = I ∪ {α} in the table defines |K| candidate pairs
  // (drop each item in turn); enumerating supersets guarantees both
  // sides of the comparison are in the table. The base row I comes
  // straight off the lattice links.
  for (size_t i = 0; i < table.size(); ++i) {
    if (guard != nullptr && i % internal::kRowsPerTick == 0 &&
        !guard->Tick()) {
      return internal::GuardStopStatus(guard);
    }
    if (!table.row_ok(i)) {
      return internal::CorruptTableStatus("row " + std::to_string(i) +
                                          " has out-of-range offsets");
    }
    const ItemSpan with_items = table.row_items(i);
    if (with_items.empty()) continue;
    const std::span<const uint32_t> links = table.row_links(i);
    for (size_t j = 0; j < with_items.size(); ++j) {
      const uint32_t link = links[j];
      // kNoLink: subset dropped by a guard truncation — skip the pair.
      if (link == PatternTable::kNoLink) continue;
      if (link >= table.size() || !table.row_ok(link)) {
        return internal::CorruptTableStatus(
            "subset link " + std::to_string(link) + " under row " +
            std::to_string(i) + " is out of range");
      }
      if (table.row_items(link).empty()) continue;  // Δ(∅) = 0
      const double factor = std::fabs(table.divergence(link)) -
                            std::fabs(table.divergence(i));
      // Written so that a NaN factor (a corrupt served row) fails too.
      if (!(factor > options.min_factor && factor > 0.0)) continue;
      const CorrectiveCandidate c{factor, i, link, with_items[j]};
      if (k == 0 || kept.size() < k) {
        kept.push_back(c);
        if (k != 0) std::push_heap(kept.begin(), kept.end(), before);
      } else if (before(c, kept.front())) {
        // kept.front() is the worst of the best k so far.
        std::pop_heap(kept.begin(), kept.end(), before);
        kept.back() = c;
        std::push_heap(kept.begin(), kept.end(), before);
      }
    }
  }
  if (k == 0) {
    std::sort(kept.begin(), kept.end(), before);
  } else {
    std::sort_heap(kept.begin(), kept.end(), before);
  }
  std::vector<CorrectiveItem> out;
  out.reserve(kept.size());
  for (const CorrectiveCandidate& c : kept) {
    const ItemSpan base = table.row_items(c.base);
    CorrectiveItem item;
    item.base.assign(base.begin(), base.end());
    item.item = c.item;
    item.base_divergence = table.divergence(c.base);
    item.with_divergence = table.divergence(c.with);
    item.factor = c.factor;
    item.t = table.t(c.with);
    out.push_back(std::move(item));
  }
  return out;
}

/// ScanCorrectiveItems over an in-memory table, which cannot fail.
std::vector<CorrectiveItem> FindCorrectiveItems(
    const PatternTable& table, const CorrectiveOptions& options = {});

}  // namespace divexp

#endif  // DIVEXP_CORE_CORRECTIVE_H_
