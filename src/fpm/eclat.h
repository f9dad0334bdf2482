// ECLAT miner (Zaki, 2000): depth-first search over vertical tid-sets.
// Third interchangeable backend behind paper Alg. 1 — DivExplorer "can
// leverage any frequent pattern mining technique" (§5).
#ifndef DIVEXP_FPM_ECLAT_H_
#define DIVEXP_FPM_ECLAT_H_

#include "fpm/miner.h"

namespace divexp {

/// Depth-first vertical miner. Each item keeps the sorted list of
/// transaction ids containing it; extending a prefix intersects
/// tid-lists, and the (T, F, ⊥) tallies are read off the intersected
/// list's outcomes. Memory stays proportional to the search path (one
/// tid-list per depth), unlike Apriori's per-level candidate sets.
class EclatMiner final : public FrequentPatternMiner {
 public:
  std::string name() const override { return "eclat"; }

  Result<PatternBuffer> MineBuffer(
      const TransactionDatabase& db,
      const MinerOptions& options) const override;
};

}  // namespace divexp

#endif  // DIVEXP_FPM_ECLAT_H_
