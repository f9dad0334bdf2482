// The pattern table: every frequent itemset with its support, outcome
// rate, divergence and significance. All downstream analyses (Shapley,
// global divergence, corrective items, pruning, lattices) are pure
// functions over this table — the payoff of the paper's complete
// exploration.
//
// Storage is columnar, in the artifact's own layout
// (core/table_columns.h): one flat items buffer and one offsets array,
// then 3 tallies and 4 statistics per row, and the *lattice index* —
// for each row K, the row indices of its |K| immediate subsets
// K \ {α}, aligned with K's items so the one offsets array serves both.
// The analyses walk these integer links instead of materializing
// temporary itemsets and looking them up (see docs/performance.md). No
// row owns a heap object.
//
// Rows are in *canonical order*: ascending itemset length, then
// lexicographic items, so the empty itemset is row 0 and every subset
// precedes its supersets. Create establishes it itself, with a radix
// permutation of the mined buffer (fpm/pattern_buffer.h), whatever
// order the miner, a resume or a shard merge emitted; the row index is
// therefore the canonical rank of a row's itemset.
//
// The table keeps no side index: Find is CanonicalFind, a binary search
// over that order, and the lattice links are derived from the same
// order by one prefix walk (LinkSubsets; docs/performance.md).
//
// The read-side analyses (top-k here, lattice.h, shapley.h,
// corrective.h, table_fingerprint.h) are function templates over a
// *table read surface*, which PatternTable and the served artifact's
// serve::TableView both provide under the same names:
//
//   size()                       rows, the empty itemset included
//   row_items(i)                 ItemSpan of row i's itemset
//   row_links(i)                 immediate-subset links (kNoLink holes)
//   support(i) rate(i) divergence(i) t(i) counts(i)
//   Find(ItemSpan)               row index of an itemset, if present
//   row_ok(i)                    false only for a corrupt served row
//
// One body per analysis therefore answers both the in-memory table and
// the mmap'd artifact. Offsets, links and item ids read off an artifact
// opened with header-tier validation are untrusted, so the query
// analyses check row_ok, link bounds and item ids and report corruption
// as a clean InvalidArgument; on a PatternTable those checks never
// fire. (The fingerprint runs only on fully validated views.)
#ifndef DIVEXP_CORE_PATTERN_H_
#define DIVEXP_CORE_PATTERN_H_

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/table_columns.h"
#include "data/encoder.h"
#include "fpm/itemset.h"
#include "fpm/miner.h"
#include "obs/stage.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {

/// A copy of one row of the pattern table (PatternTable::row).
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
  /// (every row's stats and links are a pure function of the rows).
  size_t num_threads = 1;
  /// Optional per-stage accounting sink: the canonical-order gather
  /// records an obs::kStageOrder record and the stat/link pass an
  /// obs::kStagePostIndex record (both sub-intervals of
  /// obs::kStageDivergence).
  obs::StageCollector* stages = nullptr;
};

/// Immutable table of all frequent patterns for one (dataset, outcome
/// function) pair, in canonical order, with precomputed immediate-subset
/// links.
class PatternTable {
 public:
  /// Sentinel link for an absent immediate subset. Only possible on
  /// guard-truncated tables (a complete exploration contains every
  /// subset of every frequent itemset).
  static constexpr uint32_t kNoLink = UINT32_MAX;

  /// Builds from mined patterns in any row order; the table holds them
  /// in canonical order. The empty itemset must be present (the miners
  /// emit it); it defines the global rate f(D). The buffer is released
  /// once its rows are copied.
  ///
  /// The optional `guard` governs the divergence/significance post-pass
  /// itself: if a deadline/memory limit trips mid-pass, the remaining
  /// patterns are dropped and the guard latches the breach (callers
  /// decide between fail and truncate). Rows are charged in canonical
  /// order, so a truncated table is a canonical prefix. A guard that
  /// already stopped during mining is not re-enforced here, so a
  /// truncated mining run still gets divergences for the patterns it
  /// produced.
  static Result<PatternTable> Create(PatternBuffer mined, ItemCatalog catalog,
                                     size_t num_rows,
                                     RunGuard* guard = nullptr,
                                     const PatternTableOptions& options = {});

  /// Create over one MinedPattern per row. Kept only for the end-to-end
  /// benchmark's traced path and tests; deletion waits for the next
  /// benchmark-only change.
  static Result<PatternTable> Create(std::vector<MinedPattern> mined,
                                     ItemCatalog catalog, size_t num_rows,
                                     RunGuard* guard = nullptr,
                                     const PatternTableOptions& options = {});

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// A by-value copy of row i. The read surface below is the API; this
  /// remains until the benchmark's sources move to it (ROADMAP), and for
  /// tests.
  PatternRow row(size_t i) const;

  /// Guard charge of one row of `num_items` items: its items and links,
  /// its offset, tallies and statistics.
  static constexpr uint64_t RowBytes(size_t num_items) {
    return num_items * 2 * sizeof(uint32_t) + sizeof(uint64_t) +
           kTalliesPerRow * sizeof(uint64_t) + kStatsPerRow * sizeof(double);
  }

  /// The columns, as the artifact writer copies them.
  TableColumns columns() const {
    return TableColumns{items_, offsets_, tallies_, stats_, subset_links_};
  }

  const ItemCatalog& catalog() const { return catalog_; }
  size_t num_dataset_rows() const { return num_dataset_rows_; }

  /// Global positive rate f(D).
  double global_rate() const { return global_rate_; }

  /// Beta posterior mean / variance of f(D); serialized alongside the
  /// rate so the serving artifact can rebuild t statistics.
  double global_mean() const { return global_mean_; }
  double global_variance() const { return global_variance_; }

  /// Index of an itemset, if frequent: CanonicalFind, O(log n · |q|).
  std::optional<size_t> Find(ItemSpan items) const {
    return CanonicalFind(size(), [this](size_t i) { return row_items(i); },
                         items);
  }

  bool Contains(const Itemset& items) const {
    return Find(items).has_value();
  }

  /// Δ_f of a frequent itemset; error if not in the table.
  Result<double> Divergence(const Itemset& items) const;

  // The table read surface (see the file comment).
  ItemSpan row_items(size_t i) const {
    return ItemSpan(items_).subspan(offsets_[i],
                                    offsets_[i + 1] - offsets_[i]);
  }
  /// Row indices of row i's immediate subsets, aligned with
  /// row_items(i): row_links(i)[j] is the row of items \ {items[j]},
  /// or kNoLink if that subset was dropped by a guard truncation. Empty
  /// span for the empty itemset.
  std::span<const uint32_t> row_links(size_t i) const {
    return std::span<const uint32_t>(subset_links_)
        .subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  OutcomeCounts counts(size_t i) const { return columns().counts(i); }
  double support(size_t i) const { return columns().support(i); }
  double rate(size_t i) const { return columns().rate(i); }
  double divergence(size_t i) const { return columns().divergence(i); }
  double t(size_t i) const { return columns().t(i); }
  /// An in-memory table is consistent by construction.
  bool row_ok(size_t) const { return true; }

  /// Sort key for ranking patterns (paper §5: itemsets can be ranked
  /// by significance, support or f-divergence).
  enum class RankKey {
    kDivergence,
    kSignificance,  ///< Welch t statistic
    kSupport,
  };

  // Rank, RankByDivergence and TopK are TopKRows (below) with the
  // matching TopKQuery.

  /// Row indices sorted by `key` (descending when `descending`),
  /// excluding the empty itemset. Ties break as in TopKRows.
  std::vector<size_t> Rank(RankKey key, bool descending = true) const;

  /// Row indices sorted by divergence (descending when
  /// `descending`), excluding the empty itemset.
  std::vector<size_t> RankByDivergence(bool descending = true) const;

  /// Top-k rows by divergence with support >= min_support and length
  /// within [min_len, max_len] (0 = unbounded max).
  std::vector<size_t> TopK(size_t k, bool descending = true,
                           double min_support = 0.0, size_t min_len = 1,
                           size_t max_len = 0) const;

  /// ItemsetName / ParseItemset (below) over this table's catalog.
  std::string ItemsetName(const Itemset& items) const;
  Result<Itemset> ParseItemset(
      const std::vector<std::pair<std::string, std::string>>& items) const;

 private:
  /// Fills subset_links_ from the canonical order, one length group at
  /// a time (each group reads only shorter ones).
  void LinkSubsets(size_t num_threads);

  // The columns (core/table_columns.h); offsets_ serves items_ and
  // subset_links_ alike.
  std::vector<uint32_t> items_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> tallies_;
  std::vector<double> stats_;
  std::vector<uint32_t> subset_links_;
  ItemCatalog catalog_;
  size_t num_dataset_rows_ = 0;
  double global_rate_ = 0.0;
  double global_mean_ = 0.0;      // Beta posterior mean of f(D)
  double global_variance_ = 0.0;  // Beta posterior variance of f(D)
};

/// A top-k ranking request over the paper's three ranking keys (§5).
struct TopKQuery {
  size_t k = 10;
  PatternTable::RankKey key = PatternTable::RankKey::kDivergence;
  bool descending = true;
  double min_support = 0.0;
  size_t min_len = 1;
  size_t max_len = 0;  ///< 0 = unbounded
};

/// "attr=value" for one item. An id outside the catalog — possible only
/// on a corrupted served artifact — renders as a placeholder instead of
/// tripping the catalog's bounds CHECK.
std::string ItemName(const ItemCatalog& catalog, uint32_t item);

/// "attr1=v1, attr2=v2" rendering ("(all)" for the empty itemset).
std::string ItemsetName(const ItemCatalog& catalog, ItemSpan items);

/// Resolves "attr=value" item descriptions into a canonical itemset.
Result<Itemset> ParseItemset(
    const ItemCatalog& catalog,
    const std::vector<std::pair<std::string, std::string>>& items);

namespace internal {

/// The Status of an analysis its RunGuard stopped.
Status GuardStopStatus(RunGuard* guard);

/// InvalidArgument for a served row whose offsets or links are corrupt.
Status CorruptTableStatus(const std::string& what);

/// The per-row scans (top-k, corrective) tick their guard once per this
/// many rows, starting at row 0: RunGuard::Tick is an atomic
/// read-modify-write, which costs more than the rest of a top-k row.
inline constexpr size_t kRowsPerTick = 64;

}  // namespace internal

/// Row indices of the top-k rows of any table read surface by
/// `query.key`, excluding the empty itemset, filtered by support and
/// length. Ties break on higher support, then lower row index: a strict
/// total order, so the partial selection returns exactly the prefix of
/// the full ranking. Every PatternTable is in canonical order, and so is
/// every artifact that passes kFull validation, so there the row index
/// tie-break means shorter itemset, then lexicographic items. A
/// header-tier view of a corrupt, non-canonical file still gets a
/// deterministic total order. A full ranking (k >= candidates) sorts
/// (key, support, row) records; a smaller k partial-sorts row ids,
/// building no records. Fails only when `guard` stops the scan or a
/// served row is corrupt.
template <typename Table>
Result<std::vector<size_t>> TopKRows(const Table& table,
                                     const TopKQuery& query,
                                     RunGuard* guard = nullptr) {
  // One key per row, computed once: the comparator runs O(n log k)
  // times and must not re-derive its operands per comparison.
  std::vector<double> keys(table.size());
  std::vector<size_t> candidates;
  for (size_t i = 0; i < table.size(); ++i) {
    if (guard != nullptr && i % internal::kRowsPerTick == 0 &&
        !guard->Tick()) {
      return internal::GuardStopStatus(guard);
    }
    if (!table.row_ok(i)) {
      return internal::CorruptTableStatus("row " + std::to_string(i) +
                                          " has out-of-range offsets");
    }
    switch (query.key) {
      case PatternTable::RankKey::kDivergence:
        keys[i] = table.divergence(i);
        break;
      case PatternTable::RankKey::kSignificance:
        keys[i] = table.t(i);
        break;
      case PatternTable::RankKey::kSupport:
        keys[i] = table.support(i);
        break;
    }
    const size_t len = table.row_items(i).size();
    if (len == 0) continue;
    if (table.support(i) < query.min_support) continue;
    if (len < query.min_len) continue;
    if (query.max_len != 0 && len > query.max_len) continue;
    candidates.push_back(i);
  }
  if (query.k < candidates.size()) {
    const auto less = [&](size_t a, size_t b) {
      if (keys[a] != keys[b]) {
        return query.descending ? keys[a] > keys[b] : keys[a] < keys[b];
      }
      if (table.support(a) != table.support(b)) {
        return table.support(a) > table.support(b);
      }
      return a < b;
    };
    std::partial_sort(candidates.begin(), candidates.begin() + query.k,
                      candidates.end(), less);
    candidates.resize(query.k);
    return candidates;
  }
  // The same order over records that carry their operands, ascending:
  // a descending key and the descending support are negated.
  struct Record {
    double key;
    double support;
    size_t row;
  };
  const double sign = query.descending ? -1.0 : 1.0;
  std::vector<Record> records(candidates.size());
  for (size_t j = 0; j < candidates.size(); ++j) {
    const size_t i = candidates[j];
    records[j] = Record{sign * keys[i], -table.support(i), i};
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.support != b.support) return a.support < b.support;
              return a.row < b.row;
            });
  for (size_t j = 0; j < records.size(); ++j) candidates[j] = records[j].row;
  return candidates;
}

}  // namespace divexp

#endif  // DIVEXP_CORE_PATTERN_H_
