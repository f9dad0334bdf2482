#include "fpm/miner.h"

#include <algorithm>
#include <cmath>

#include "fpm/apriori.h"
#include "fpm/eclat.h"
#include "fpm/fpgrowth.h"

namespace divexp {

const char* MinerKindName(MinerKind kind) {
  switch (kind) {
    case MinerKind::kFpGrowth:
      return "fpgrowth";
    case MinerKind::kApriori:
      return "apriori";
    case MinerKind::kEclat:
      return "eclat";
    case MinerKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::unique_ptr<FrequentPatternMiner> MakeMiner(MinerKind kind) {
  switch (kind) {
    case MinerKind::kFpGrowth:
      return std::make_unique<FpGrowthMiner>();
    case MinerKind::kApriori:
      return std::make_unique<AprioriMiner>();
    case MinerKind::kEclat:
      return std::make_unique<EclatMiner>();
    case MinerKind::kAuto:
      // kAuto must be resolved through fpm::ChooseMiningPlan first;
      // there is no "auto miner" object.
      return nullptr;
  }
  return nullptr;
}

uint64_t MinCount(double min_support, size_t num_rows) {
  const double raw = min_support * static_cast<double>(num_rows);
  uint64_t count = static_cast<uint64_t>(std::ceil(raw - 1e-9));
  return std::max<uint64_t>(count, 1);
}

Result<std::vector<MinedPattern>> FrequentPatternMiner::Mine(
    const TransactionDatabase& db, const MinerOptions& options) const {
  DIVEXP_ASSIGN_OR_RETURN(const PatternBuffer mined, MineBuffer(db, options));
  return mined.ToPatterns();
}

void EnforcePatternBudget(RunGuard* guard, PatternBuffer* patterns) {
  if (guard == nullptr) return;
  const uint64_t budget = guard->limits().max_patterns;
  if (budget == 0) return;
  if (patterns->size() > budget + 1) {  // +1 for the empty itemset
    patterns->Truncate(budget + 1);
    guard->NotePatternBudgetBreach();
  }
}

void SortPatterns(std::vector<MinedPattern>* patterns) {
  const std::vector<uint32_t> order = CanonicalOrder(
      patterns->size(),
      [patterns](size_t i) { return ItemSpan((*patterns)[i].items); });
  std::vector<MinedPattern> sorted;
  sorted.reserve(order.size());
  for (const uint32_t i : order) sorted.push_back(std::move((*patterns)[i]));
  patterns->swap(sorted);
}

}  // namespace divexp
