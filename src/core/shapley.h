// Local item contributions to itemset divergence via the Shapley value
// (paper Def. 4.1): the itemset's items are the "players", its
// divergence the value of the grand coalition.
#ifndef DIVEXP_CORE_SHAPLEY_H_
#define DIVEXP_CORE_SHAPLEY_H_

#include <bit>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "stats/special.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// One item's Shapley contribution to an itemset's divergence.
struct ItemContribution {
  uint32_t item = 0;
  double contribution = 0.0;
};

/// Largest itemset the exact Shapley enumeration accepts. The cost is
/// Θ(n · 2^n) subset lookups — already minutes of work at this bound —
/// and the submask arithmetic shifts 1ULL by item positions, which is
/// undefined at n >= 64; rejecting early keeps oversized requests a
/// clean InvalidArgument. The lattice build (core/lattice.h) enumerates
/// the same 2^n subsets and shares the cap.
inline constexpr size_t kMaxShapleyItems = 24;

/// Shapley contribution Δ(α | I) of each α ∈ I (paper Eq. 5), over any
/// table read surface (core/pattern.h).
///
/// Every subset of a frequent itemset is frequent, so all lookups hit
/// the table; fails with NotFound if `items` itself is not frequent (or
/// a subset was dropped by a guard truncation). Contributions sum to
/// Δ(I) (the Shapley efficiency axiom) — this is asserted in tests, not
/// here.
template <typename Table>
Result<std::vector<ItemContribution>> ShapleyContributions(
    const Table& table, const Itemset& items, RunGuard* guard = nullptr) {
  obs::ScopedSpan span(obs::kStageShapley);
  if (items.size() > kMaxShapleyItems) {
    return Status::InvalidArgument(
        "shapley accepts at most " + std::to_string(kMaxShapleyItems) +
        " items, got " + std::to_string(items.size()) +
        ": the exact computation enumerates 2^n subsets");
  }
  const auto row_idx = table.Find(ItemSpan(items));
  if (!row_idx.has_value()) {
    return Status::NotFound("itemset not in pattern table: " +
                            ItemsetDebugString(items));
  }
  if (!table.row_ok(*row_idx)) {
    return internal::CorruptTableStatus(
        "row " + std::to_string(*row_idx) + " has out-of-range offsets");
  }
  const size_t n = items.size();
  const double n_fact = Factorial(n);
  // Immediate subsets I \ {α} come straight off the lattice links; the
  // non-immediate subsets go through Find with one scratch buffer
  // reused across the whole enumeration, so no Itemset is materialized
  // on the hot path.
  const std::span<const uint32_t> links = table.row_links(*row_idx);
  Itemset scratch;
  scratch.reserve(n);

  // Row index of the subset of `items` selected by `mask`; `extra`
  // (npos = none) forces one additional position in. nullopt only on
  // guard-truncated tables (subsets of frequent itemsets are frequent).
  const auto find_subset =
      [&](uint64_t mask, size_t extra) -> std::optional<size_t> {
    scratch.clear();
    for (size_t p = 0; p < n; ++p) {
      if ((mask & (1ULL << p)) || p == extra) scratch.push_back(items[p]);
    }
    return table.Find(ItemSpan(scratch));
  };

  std::vector<ItemContribution> out;
  out.reserve(n);
  for (size_t a = 0; a < n; ++a) {
    double value = 0.0;
    // All subsets J ⊆ I \ {α}: masks over the n positions with bit a
    // forced off (n <= kMaxShapleyItems, so the shift is in range).
    const uint64_t full = (1ULL << n) - 1;
    const uint64_t rest = full & ~(1ULL << a);
    // Enumerate submasks of `rest` in increasing order.
    uint64_t mask = 0;
    while (true) {
      if (guard != nullptr && !guard->Tick()) {
        return internal::GuardStopStatus(guard);
      }
      double with_div;
      double without_div;
      size_t j_size;
      if (mask == rest) {
        // J = I \ {α}: both rows are already linked — J ∪ {α} is I
        // itself and J is its α-link.
        if (links[a] == PatternTable::kNoLink) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        if (links[a] >= table.size()) {
          return internal::CorruptTableStatus(
              "subset link " + std::to_string(links[a]) +
              " points past the last row");
        }
        with_div = table.divergence(*row_idx);
        without_div = table.divergence(links[a]);
        j_size = n - 1;
      } else {
        const auto with = find_subset(mask, a);
        const auto without = find_subset(mask, static_cast<size_t>(-1));
        if (!with.has_value() || !without.has_value()) {
          return Status::NotFound("subset dropped by truncation under " +
                                  ItemsetDebugString(items));
        }
        with_div = table.divergence(*with);
        without_div = table.divergence(*without);
        j_size = static_cast<size_t>(std::popcount(mask));
      }
      const double weight =
          Factorial(j_size) * Factorial(n - j_size - 1) / n_fact;
      value += weight * (with_div - without_div);
      if (mask == rest) break;
      mask = (mask - rest) & rest;  // next submask of rest
    }
    out.push_back(ItemContribution{items[a], value});
  }
  return out;
}

/// Marginal contribution of `alpha` on top of I\{alpha}:
/// Δ(I) − Δ(I \ {alpha}). This is the quantity the ε-redundancy pruning
/// of §3.5 thresholds.
Result<double> MarginalContribution(const PatternTable& table,
                                    const Itemset& items, uint32_t alpha);

}  // namespace divexp

#endif  // DIVEXP_CORE_SHAPLEY_H_
