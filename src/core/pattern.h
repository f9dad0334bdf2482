// The pattern table: every frequent itemset with its support, outcome
// rate, divergence and significance. All downstream analyses (Shapley,
// global divergence, corrective items, pruning, lattices) are pure
// functions over this table — the payoff of the paper's complete
// exploration.
//
// The table carries a one-time *lattice index*: for each row K, the row
// indices of its |K| immediate subsets K \ {α}, stored inline in one
// flat array. The divergence post-pass walks these integer links
// instead of materializing temporary itemsets and re-hashing them (see
// docs/performance.md).
#ifndef DIVEXP_CORE_PATTERN_H_
#define DIVEXP_CORE_PATTERN_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/encoder.h"
#include "fpm/itemset.h"
#include "fpm/miner.h"
#include "obs/stage.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// One row of the pattern table.
struct PatternRow {
  Itemset items;
  OutcomeCounts counts;
  double support = 0.0;     ///< sup(I) = |D(I)| / |D|
  double rate = 0.0;        ///< f(I), the positive outcome rate
  double divergence = 0.0;  ///< Δ_f(I) = f(I) − f(D)  (paper Eq. 1)
  double t = 0.0;           ///< Welch t vs the dataset (paper §3.3)
};

/// Construction knobs for the divergence/significance post-pass.
struct PatternTableOptions {
  /// Worker threads for the per-row stat pass and the lattice-index
  /// build; 1 = sequential. Results are identical across thread counts
  /// (both passes are pure per-row computations).
  size_t num_threads = 1;
  /// Optional per-stage accounting sink: the index/stat pass records an
  /// obs::kStagePostIndex record (a sub-interval of
  /// obs::kStageDivergence).
  obs::StageCollector* stages = nullptr;
};

/// Immutable table of all frequent patterns for one (dataset, outcome
/// function) pair, with O(1) itemset lookup and precomputed
/// immediate-subset links.
class PatternTable {
 public:
  /// Sentinel link for an absent immediate subset. Only possible on
  /// guard-truncated tables (a complete exploration contains every
  /// subset of every frequent itemset).
  static constexpr uint32_t kNoLink = UINT32_MAX;

  /// Builds from mined patterns. The empty itemset must be present (the
  /// miners emit it); it defines the global rate f(D).
  ///
  /// The optional `guard` governs the divergence/significance post-pass
  /// itself: if a deadline/memory limit trips mid-pass, the remaining
  /// patterns are dropped and the guard latches the breach (callers
  /// decide between fail and truncate). A guard that already stopped
  /// during mining is not re-enforced here, so a truncated mining run
  /// still gets divergences for the patterns it produced.
  static Result<PatternTable> Create(std::vector<MinedPattern> mined,
                                     ItemCatalog catalog, size_t num_rows,
                                     RunGuard* guard = nullptr,
                                     const PatternTableOptions& options = {});

  size_t size() const { return rows_.size(); }
  const PatternRow& row(size_t i) const { return rows_[i]; }
  const std::vector<PatternRow>& rows() const { return rows_; }

  const ItemCatalog& catalog() const { return catalog_; }
  size_t num_dataset_rows() const { return num_dataset_rows_; }

  /// Global positive rate f(D).
  double global_rate() const { return global_rate_; }

  /// Beta posterior mean / variance of f(D); serialized alongside the
  /// rate so the serving artifact can rebuild t statistics.
  double global_mean() const { return global_mean_; }
  double global_variance() const { return global_variance_; }

  /// Index of an itemset, if frequent.
  std::optional<size_t> Find(const Itemset& items) const;

  /// Heterogeneous lookup: no Itemset is materialized for the query.
  std::optional<size_t> Find(ItemSpan items) const;

  /// Lookup of the immediate subset row(i).items \ {items[skip]}
  /// without materializing it.
  std::optional<size_t> Find(const ItemsetSkipView& view) const;

  bool Contains(const Itemset& items) const {
    return Find(items).has_value();
  }

  /// Δ_f of a frequent itemset; error if not in the table.
  Result<double> Divergence(const Itemset& items) const;

  /// Row indices of row i's immediate subsets, aligned with
  /// row(i).items: SubsetLinks(i)[j] is the row of items \ {items[j]},
  /// or kNoLink if that subset was dropped by a guard truncation. Empty
  /// span for the empty itemset.
  std::span<const uint32_t> SubsetLinks(size_t i) const {
    return std::span<const uint32_t>(subset_links_)
        .subspan(link_offsets_[i], link_offsets_[i + 1] - link_offsets_[i]);
  }

  /// Sort key for ranking patterns (paper §5: itemsets can be ranked
  /// by significance, support or f-divergence).
  enum class RankKey {
    kDivergence,
    kSignificance,  ///< Welch t statistic
    kSupport,
  };

  /// Row indices sorted by `key` (descending when `descending`),
  /// excluding the empty itemset. Ties break deterministically.
  std::vector<size_t> Rank(RankKey key, bool descending = true) const;

  /// Row indices sorted by divergence (descending when
  /// `descending`), excluding the empty itemset.
  std::vector<size_t> RankByDivergence(bool descending = true) const;

  /// Top-k rows by divergence with support >= min_support and length
  /// within [min_len, max_len] (0 = unbounded max). Partial selection:
  /// O(n + k log n) instead of a full sort for small k.
  std::vector<size_t> TopK(size_t k, bool descending = true,
                           double min_support = 0.0, size_t min_len = 1,
                           size_t max_len = 0) const;

  /// "attr1=v1, attr2=v2" rendering of an itemset.
  std::string ItemsetName(const Itemset& items) const;

  /// Resolves "attr=value" item descriptions into an itemset.
  Result<Itemset> ParseItemset(
      const std::vector<std::pair<std::string, std::string>>& items) const;

 private:
  /// Comparator shared by Rank and TopK: orders row indices by a
  /// precomputed key vector with the deterministic tie-break chain
  /// (higher support, then shorter, then items). Total order, so
  /// unstable sorts produce the same permutation as stable ones.
  bool RankLess(size_t a, size_t b, const std::vector<double>& keys,
                bool descending) const;

  std::vector<PatternRow> rows_;
  std::unordered_map<Itemset, size_t, ItemsetHash, ItemsetEq> index_;
  /// Flat immediate-subset links; row i owns
  /// [link_offsets_[i], link_offsets_[i+1]).
  std::vector<uint32_t> subset_links_;
  std::vector<size_t> link_offsets_;
  ItemCatalog catalog_;
  size_t num_dataset_rows_ = 0;
  double global_rate_ = 0.0;
  double global_mean_ = 0.0;      // Beta posterior mean of f(D)
  double global_variance_ = 0.0;  // Beta posterior variance of f(D)
};

}  // namespace divexp

#endif  // DIVEXP_CORE_PATTERN_H_
