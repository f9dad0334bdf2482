// Discretization of continuous attributes into categorical bins.
//
// DivExplorer operates on discretized data only (paper §3.1); the paper
// notes that finer discretization never hides divergence (Property 3.1),
// so the choice of bin count is a resolution knob, not a correctness one.
#ifndef DIVEXP_DATA_DISCRETIZE_H_
#define DIVEXP_DATA_DISCRETIZE_H_

#include <string>
#include <vector>

#include "data/dataframe.h"
#include "util/status.h"

namespace divexp {

/// How bin edges are chosen.
enum class BinStrategy {
  kEqualWidth,  ///< equal-width bins over [min, max]
  kQuantile,    ///< equal-frequency bins (edges at quantiles)
  kCustom,      ///< caller-supplied interior edges
};

/// Per-column discretization request.
struct DiscretizeSpec {
  std::string column;
  BinStrategy strategy = BinStrategy::kQuantile;
  /// Number of bins for kEqualWidth / kQuantile (>= 2).
  int num_bins = 3;
  /// Interior edges for kCustom, strictly increasing. k interior edges
  /// produce k+1 bins.
  std::vector<double> edges;
  /// Optional custom bin labels; must have edges.size()+1 entries when
  /// provided (or num_bins entries for automatic strategies).
  std::vector<std::string> labels;
};

/// Computes k-1 interior edges for equal-width binning of `values`
/// (NaNs ignored).
std::vector<double> EqualWidthEdges(const std::vector<double>& values,
                                    int num_bins);

/// Computes up to k-1 interior edges at the 1/k, 2/k, ... quantiles
/// (duplicates collapsed, so heavily tied data may yield fewer bins).
/// Each edge is selected with nth_element (expected linear time), not
/// read off a sort.
std::vector<double> QuantileEdges(std::vector<double> values, int num_bins);

/// Human-readable labels for the bins induced by interior `edges`:
/// "<=a", "(a-b]", ">b". `integral` renders edges without decimals.
std::vector<std::string> DefaultBinLabels(const std::vector<double>& edges,
                                          bool integral);

/// Bin index (0-based) of `v` given interior `edges`; bins are
/// (-inf, e1], (e1, e2], ..., (ek, +inf).
int BinIndex(double v, const std::vector<double>& edges);

/// Discretizes a double/int column into a categorical column per `spec`
/// (NaN rows become missing codes).
Result<Column> DiscretizeColumn(const Column& column,
                                const DiscretizeSpec& spec);

/// Applies the given specs to `df`, replacing each named column with its
/// discretized version. Columns not named in any spec are left intact.
Result<DataFrame> Discretize(const DataFrame& df,
                             const std::vector<DiscretizeSpec>& specs);

/// Convenience: discretizes every non-categorical column of `df` with
/// the same strategy and bin count.
Result<DataFrame> DiscretizeAll(const DataFrame& df, BinStrategy strategy,
                                int num_bins);

}  // namespace divexp

#endif  // DIVEXP_DATA_DISCRETIZE_H_
