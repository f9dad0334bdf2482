#include "core/summary.h"

#include <sstream>

#include "core/corrective.h"
#include "core/global_divergence.h"
#include "core/multi.h"
#include "core/pruning.h"
#include "core/shapley.h"
#include "util/string_util.h"

namespace divexp {
namespace {

void PatternTableSection(const PatternTable& table, Metric metric,
                         const AuditReportOptions& options,
                         std::ostringstream& os) {
  os << "Overall " << MetricName(metric) << " = "
     << FormatDouble(table.global_rate(), 4) << ", "
     << (table.size() - 1) << " frequent patterns.\n\n";

  const auto top = table.TopK(options.top_k);
  os << "| pattern | support | divergence | t |\n";
  os << "|---|---|---|---|\n";
  for (size_t i : top) {
    os << "| " << ItemsetName(table.catalog(), table.row_items(i)) << " | "
       << FormatDouble(table.support(i), 2) << " | "
       << FormatDouble(table.divergence(i), 3) << " | "
       << FormatDouble(table.t(i), 1) << " |\n";
  }
  os << "\n";

  if (!top.empty()) {
    const ItemSpan top_items = table.row_items(top[0]);
    const Itemset worst(top_items.begin(), top_items.end());
    auto contributions = ShapleyContributions(table, worst);
    if (contributions.ok()) {
      os << "Item contributions to the top pattern ["
         << table.ItemsetName(worst) << "]:\n\n";
      for (const ItemContribution& c : *contributions) {
        os << "* " << table.catalog().ItemName(c.item) << ": "
           << FormatDouble(c.contribution, 3) << "\n";
      }
      os << "\n";
    }
  }

  CorrectiveOptions copts;
  copts.top_k = options.corrective_k;
  const auto corrective = FindCorrectiveItems(table, copts);
  if (!corrective.empty()) {
    os << "Corrective items (adding the item repairs the divergence):\n\n";
    for (const CorrectiveItem& c : corrective) {
      os << "* " << table.ItemsetName(c.base) << " + "
         << table.catalog().ItemName(c.item) << ": "
         << FormatDouble(c.base_divergence, 3) << " -> "
         << FormatDouble(c.with_divergence, 3) << "\n";
    }
    os << "\n";
  }

  const auto kept = RedundancyPrune(table, options.epsilon);
  os << "Redundancy pruning (eps = " << FormatDouble(options.epsilon, 2)
     << "): " << (table.size() - 1) << " -> " << kept.size()
     << " patterns.\n\n";
}

}  // namespace

Result<std::string> GenerateAuditReport(
    const EncodedDataset& dataset, const std::vector<int>& predictions,
    const std::vector<int>& truths, const AuditReportOptions& options) {
  if (options.metrics.empty()) {
    return Status::InvalidArgument("at least one metric required");
  }
  // One mining pass serves every requested metric.
  MultiExplorer explorer(options.explorer);
  DIVEXP_ASSIGN_OR_RETURN(MultiPatternTable multi,
                          explorer.Explore(dataset, predictions, truths));

  std::ostringstream os;
  os << "# " << options.title << "\n\n";
  os << "Dataset: " << dataset.num_rows << " rows, "
     << dataset.catalog.num_attributes() << " attributes, "
     << dataset.catalog.num_items() << " items. Support threshold s = "
     << FormatDouble(options.explorer.min_support, 3) << ".\n\n";

  for (Metric metric : options.metrics) {
    os << "## " << MetricName(metric) << " divergence\n\n";
    DIVEXP_ASSIGN_OR_RETURN(PatternTable table, multi.Project(metric));
    PatternTableSection(table, metric, options, os);
  }

  // Global item ranking on the first metric.
  DIVEXP_ASSIGN_OR_RETURN(PatternTable first,
                          multi.Project(options.metrics.front()));
  const auto globals = ComputeGlobalItemDivergence(first);
  std::vector<GlobalItemDivergence> sorted = globals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.global > b.global;
                   });
  os << "## Global item divergence ("
     << MetricName(options.metrics.front()) << ")\n\n";
  os << "| item | global | individual |\n|---|---|---|\n";
  const size_t n_items = std::min<size_t>(sorted.size(), options.top_k * 2);
  for (size_t i = 0; i < n_items; ++i) {
    os << "| " << first.catalog().ItemName(sorted[i].item) << " | "
       << FormatDouble(sorted[i].global, 4) << " | "
       << FormatDouble(sorted[i].individual, 4) << " |\n";
  }
  os << "\n";
  return os.str();
}

}  // namespace divexp
