#include "core/pruning.h"

#include <cmath>
#include <span>

#include "obs/stage.h"
#include "obs/trace.h"

namespace divexp {

std::vector<size_t> RedundancyPrune(const PatternTable& table,
                                    double epsilon) {
  obs::ScopedSpan span(obs::kStagePrune);
  std::vector<size_t> kept;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row_items(i).empty()) continue;
    const double divergence = table.divergence(i);
    const std::span<const uint32_t> links = table.row_links(i);
    bool redundant = false;
    for (uint32_t link : links) {
      // kNoLink: subset dropped by a guard truncation — the comparison
      // is unavailable, so it cannot prove the pattern redundant.
      if (link == PatternTable::kNoLink) continue;
      if (std::fabs(divergence - table.divergence(link)) <= epsilon) {
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(i);
  }
  return kept;
}

std::vector<size_t> PrunedCountsByEpsilon(
    const PatternTable& table, const std::vector<double>& epsilons) {
  std::vector<size_t> counts;
  counts.reserve(epsilons.size());
  for (double eps : epsilons) {
    counts.push_back(RedundancyPrune(table, eps).size());
  }
  return counts;
}

}  // namespace divexp
