// Outcome functions (paper Def. 3.2): the Boolean o : D -> {T, F, ⊥}
// whose positive rate is the statistic f under analysis. Keeping o
// Boolean is what makes DivExplorer model-agnostic and what enables the
// Beta-posterior significance treatment.
#ifndef DIVEXP_CORE_OUTCOME_H_
#define DIVEXP_CORE_OUTCOME_H_

#include <string>
#include <vector>

#include "fpm/transactions.h"
#include "util/status.h"

namespace divexp {

/// Classifier-performance statistic encoded as an outcome function.
/// The paper's experiments focus on kFalsePositiveRate /
/// kFalseNegativeRate plus error rate and accuracy (Table 2); the rest
/// are the additional metrics DivExplorer supports (§3.2).
enum class Metric {
  kFalsePositiveRate,
  kFalseNegativeRate,
  kErrorRate,
  kAccuracy,
  kTruePositiveRate,
  kTrueNegativeRate,
  kPositivePredictiveValue,
  kFalseDiscoveryRate,
  kFalseOmissionRate,
  kNegativePredictiveValue,
  kPositiveRate,           ///< rate of the ground truth (u ignored)
  kPredictedPositiveRate,  ///< rate of the prediction (v ignored)
};

/// Every Metric, in declaration order.
inline constexpr Metric kAllMetrics[] = {
    Metric::kFalsePositiveRate,      Metric::kFalseNegativeRate,
    Metric::kErrorRate,              Metric::kAccuracy,
    Metric::kTruePositiveRate,       Metric::kTrueNegativeRate,
    Metric::kPositivePredictiveValue, Metric::kFalseDiscoveryRate,
    Metric::kFalseOmissionRate,      Metric::kNegativePredictiveValue,
    Metric::kPositiveRate,           Metric::kPredictedPositiveRate,
};

/// Short identifier, e.g. "FPR"; ParseMetric (the CLI's) inverts it.
const char* MetricName(Metric metric);

/// Applies the outcome function of `metric` to one
/// (prediction, ground-truth) pair.
Outcome EvalOutcome(Metric metric, bool prediction, bool truth);

/// Vectorized outcome computation. `predictions` and `truths` must have
/// equal length and contain 0/1 values.
Result<std::vector<Outcome>> ComputeOutcomes(
    Metric metric, const std::vector<int>& predictions,
    const std::vector<int>& truths);

}  // namespace divexp

#endif  // DIVEXP_CORE_OUTCOME_H_
