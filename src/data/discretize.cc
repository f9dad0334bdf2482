#include "data/discretize.h"

#include <algorithm>
#include <cmath>

#include "obs/stage.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace divexp {
namespace {

std::vector<double> FiniteValues(const Column& column) {
  std::vector<double> vals;
  vals.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsMissing(i)) continue;
    vals.push_back(column.Numeric(i));
  }
  return vals;
}

std::string EdgeString(double e, bool integral) {
  if (integral) {
    return std::to_string(static_cast<long long>(std::llround(e)));
  }
  std::string s = FormatDouble(e, 2);
  return s;
}

}  // namespace

std::vector<double> EqualWidthEdges(const std::vector<double>& values,
                                    int num_bins) {
  DIVEXP_CHECK(num_bins >= 2);
  if (values.empty()) return {};
  const auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
  const double mn = *mn_it;
  const double mx = *mx_it;
  std::vector<double> edges;
  if (mx <= mn) return edges;
  const double width = (mx - mn) / num_bins;
  for (int i = 1; i < num_bins; ++i) edges.push_back(mn + width * i);
  return edges;
}

std::vector<double> QuantileEdges(std::vector<double> values,
                                  int num_bins) {
  DIVEXP_CHECK(num_bins >= 2);
  if (values.empty()) return {};
  // Nearest-rank quantiles, selected in increasing rank order: after
  // nth_element at rank idx, [idx, end) holds exactly the ranks >= idx,
  // so each selection only partitions what is left. The edges equal
  // those read off a full sort.
  std::vector<double> edges;
  size_t lo = 0;
  for (int i = 1; i < num_bins; ++i) {
    const double q = static_cast<double>(i) / num_bins;
    const size_t idx = static_cast<size_t>(q * (values.size() - 1));
    std::nth_element(values.begin() + lo, values.begin() + idx,
                     values.end());
    lo = idx;
    const double e = values[idx];
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  // An edge equal to the maximum would create an empty last bin.
  const double max = *std::max_element(values.begin() + lo, values.end());
  while (!edges.empty() && edges.back() >= max) edges.pop_back();
  return edges;
}

std::vector<std::string> DefaultBinLabels(const std::vector<double>& edges,
                                          bool integral) {
  std::vector<std::string> labels;
  if (edges.empty()) {
    labels.push_back("all");
    return labels;
  }
  labels.push_back("<=" + EdgeString(edges.front(), integral));
  for (size_t i = 1; i < edges.size(); ++i) {
    labels.push_back("(" + EdgeString(edges[i - 1], integral) + "-" +
                     EdgeString(edges[i], integral) + "]");
  }
  labels.push_back(">" + EdgeString(edges.back(), integral));
  return labels;
}

int BinIndex(double v, const std::vector<double>& edges) {
  // First edge >= v gives the bin; bins are left-open, right-closed.
  const auto it = std::lower_bound(edges.begin(), edges.end(), v);
  return static_cast<int>(it - edges.begin());
}

Result<Column> DiscretizeColumn(const Column& column,
                                const DiscretizeSpec& spec) {
  if (column.type() != ColumnType::kDouble &&
      column.type() != ColumnType::kInt) {
    return Status::InvalidArgument("column '" + column.name() +
                                   "' is not numeric");
  }
  std::vector<double> edges;
  switch (spec.strategy) {
    case BinStrategy::kEqualWidth:
      edges = EqualWidthEdges(FiniteValues(column), spec.num_bins);
      break;
    case BinStrategy::kQuantile:
      edges = QuantileEdges(FiniteValues(column), spec.num_bins);
      break;
    case BinStrategy::kCustom:
      edges = spec.edges;
      for (size_t i = 1; i < edges.size(); ++i) {
        if (edges[i] <= edges[i - 1]) {
          return Status::InvalidArgument(
              "custom edges must be strictly increasing");
        }
      }
      break;
  }
  std::vector<std::string> labels = spec.labels;
  if (labels.empty()) {
    labels = DefaultBinLabels(edges, column.type() == ColumnType::kInt);
  }
  if (labels.size() != edges.size() + 1) {
    return Status::InvalidArgument(
        "expected " + std::to_string(edges.size() + 1) + " labels for '" +
        column.name() + "', got " + std::to_string(labels.size()));
  }
  std::vector<int32_t> codes(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    codes[i] = column.IsMissing(i)
                   ? -1
                   : static_cast<int32_t>(BinIndex(column.Numeric(i), edges));
  }
  return Column::MakeCategorical(column.name(), std::move(codes),
                                 std::move(labels));
}

Result<DataFrame> Discretize(const DataFrame& df,
                             const std::vector<DiscretizeSpec>& specs) {
  DataFrame out = df;
  for (const DiscretizeSpec& spec : specs) {
    DIVEXP_ASSIGN_OR_RETURN(const Column* col, out.Find(spec.column));
    DIVEXP_ASSIGN_OR_RETURN(Column binned, DiscretizeColumn(*col, spec));
    DIVEXP_RETURN_NOT_OK(out.ReplaceColumn(std::move(binned)));
  }
  return out;
}

Result<DataFrame> DiscretizeAll(const DataFrame& df, BinStrategy strategy,
                                int num_bins) {
  obs::ScopedSpan span(obs::kStageDiscretize);
  std::vector<DiscretizeSpec> specs;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const Column& col = df.GetAt(c);
    if (col.type() == ColumnType::kDouble ||
        col.type() == ColumnType::kInt) {
      DiscretizeSpec spec;
      spec.column = col.name();
      spec.strategy = strategy;
      spec.num_bins = num_bins;
      specs.push_back(std::move(spec));
    }
  }
  return Discretize(df, specs);
}

}  // namespace divexp
