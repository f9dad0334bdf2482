// Concurrent divergence query engine over a TableView.
//
// Every query is a pure function of the immutable view, so one engine
// is shared by all server threads with no locking. The algorithms
// replicate core/pattern.cc, core/lattice.cc, core/shapley.cc and
// core/corrective.cc exactly — tests/serve/query_differential_test.cc
// asserts bit-identical results between the mmap'd artifact and the
// in-memory PatternTable it was written from.
//
// Each entry point takes an optional RunGuard: the serving daemon arms
// one per query with its configured budget, so a pathological request
// (a Shapley drill-down on a 20-item pattern, a top-k over a
// billion-row table with a tight deadline) degrades into a clean
// kDeadlineExceeded / kCancelled instead of pinning a thread. Shapley
// requests beyond kMaxShapleyItems are rejected up front — the 2^n
// enumeration is intractable well before the submask arithmetic would
// overflow.
//
// Corruption safety: a header-tier artifact open defers the payload
// CRCs, so the engine treats row offsets, subset-link values, and item
// ids as untrusted — every scan validates them (TableView::row_ok,
// explicit link bounds, placeholder item names) and surfaces corruption
// as a clean InvalidArgument instead of an out-of-range read.
#ifndef DIVEXP_SERVE_QUERY_H_
#define DIVEXP_SERVE_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "core/corrective.h"
#include "core/lattice.h"
#include "core/pattern.h"
#include "core/shapley.h"
#include "serve/table_view.h"
#include "util/run_guard.h"
#include "util/status.h"

namespace divexp {
namespace serve {

/// Parameters of a top-k ranking query; mirrors PatternTable::TopK,
/// generalized to the paper's three ranking keys (§5).
struct TopKQuery {
  size_t k = 10;
  PatternTable::RankKey key = PatternTable::RankKey::kDivergence;
  bool descending = true;
  double min_support = 0.0;
  size_t min_len = 1;
  size_t max_len = 0;  ///< 0 = unbounded
};

class QueryEngine {
 public:
  explicit QueryEngine(const TableView* view) : view_(view) {}

  const TableView& view() const { return *view_; }

  /// Row indices of the top-k patterns by the requested key, excluding
  /// the empty itemset. With key = kDivergence this returns exactly
  /// PatternTable::TopK; with k >= the candidate count it returns
  /// exactly PatternTable::Rank (the shared comparator is a strict
  /// total order, so partial and stable sorts agree).
  Result<std::vector<size_t>> TopK(const TopKQuery& query,
                                   RunGuard* guard = nullptr) const;

  /// Sub-lattice browse below `target` (core/lattice.h shape);
  /// replicates BuildLattice.
  Result<Lattice> Browse(const Itemset& target,
                         RunGuard* guard = nullptr) const;

  /// Per-item Shapley drill-down (paper Eq. 5); replicates
  /// ShapleyContributions.
  Result<std::vector<ItemContribution>> Shapley(
      const Itemset& items, RunGuard* guard = nullptr) const;

  /// Corrective-item scan (paper Def. 4.2); replicates
  /// FindCorrectiveItems.
  Result<std::vector<CorrectiveItem>> Corrective(
      const CorrectiveOptions& options, RunGuard* guard = nullptr) const;

  /// "attr1=v1, attr2=v2" rendering ("(all)" for the empty itemset).
  std::string ItemsetName(ItemSpan items) const;

  /// Bounds-checked single-item rendering: ids outside the catalog
  /// (possible only on a corrupted header-tier artifact) render as a
  /// placeholder instead of tripping the catalog's bounds CHECK.
  std::string ItemName(uint32_t item) const;

  /// Resolves "attr=value" pairs into a canonical itemset.
  Result<Itemset> ParseItemset(
      const std::vector<std::pair<std::string, std::string>>& items) const;

 private:
  const TableView* view_;
};

}  // namespace serve
}  // namespace divexp

#endif  // DIVEXP_SERVE_QUERY_H_
