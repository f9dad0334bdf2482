// FP-growth miner (Han, Pei & Yin, SIGMOD'00) whose FP-tree nodes carry
// (T, F, ⊥) outcome tallies, so pattern tallies fall out of the normal
// conditional-tree projection with no extra data scans (paper Alg. 1).
#ifndef DIVEXP_FPM_FPGROWTH_H_
#define DIVEXP_FPM_FPGROWTH_H_

#include "fpm/miner.h"

namespace divexp {

/// FP-growth over an outcome-annotated FP-tree.
///
/// The dataset is scanned exactly twice (item frequencies, tree build);
/// all further work happens on conditional trees. This is the default
/// miner, matching the configuration of the paper's experiments (§6).
class FpGrowthMiner final : public FrequentPatternMiner {
 public:
  std::string name() const override { return "fpgrowth"; }

  Result<PatternBuffer> MineBuffer(
      const TransactionDatabase& db,
      const MinerOptions& options) const override;
};

}  // namespace divexp

#endif  // DIVEXP_FPM_FPGROWTH_H_
