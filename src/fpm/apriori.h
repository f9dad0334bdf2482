// Level-wise Apriori miner (Agrawal & Srikant, VLDB'94) over vertical
// bitmaps, augmented with outcome tallies per paper Alg. 1.
#ifndef DIVEXP_FPM_APRIORI_H_
#define DIVEXP_FPM_APRIORI_H_

#include "fpm/miner.h"

namespace divexp {

/// Apriori with per-itemset row bitmaps. Candidate (k+1)-itemsets join
/// frequent k-itemsets sharing a (k-1)-prefix; items of the same
/// attribute never co-occur so such joins are filtered eagerly. Each
/// candidate's (T, F, ⊥) tallies come from AND+popcount against the
/// global outcome masks — the dataset itself is scanned only once, to
/// build the item bitmaps.
class AprioriMiner final : public FrequentPatternMiner {
 public:
  std::string name() const override { return "apriori"; }

  Result<PatternBuffer> MineBuffer(
      const TransactionDatabase& db,
      const MinerOptions& options) const override;
};

}  // namespace divexp

#endif  // DIVEXP_FPM_APRIORI_H_
