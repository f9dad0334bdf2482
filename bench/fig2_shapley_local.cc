// Experiment F2 — paper Figure 2: Shapley item contributions to the
// divergence of the COMPAS patterns with the greatest FPR and FNR
// divergence (s = 0.1).
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/shapley.h"

using namespace divexp;
using namespace divexp::bench;

int main() {
  const BenchmarkDataset ds = LoadDataset("compas");
  const EncodedDataset encoded = Encode(ds);

  std::printf(
      "== Figure 2: item contributions to the top COMPAS patterns "
      "(s=0.1) ==\n\n");
  for (Metric metric :
       {Metric::kFalsePositiveRate, Metric::kFalseNegativeRate}) {
    const PatternTable table = Explore(encoded, ds, metric, 0.1);
    const auto top = table.TopK(1);
    if (top.empty()) continue;
    const ItemSpan top_items = table.row_items(top[0]);
    const Itemset items(top_items.begin(), top_items.end());
    auto contributions = ShapleyContributions(table, items);
    if (!contributions.ok()) {
      std::fprintf(stderr, "shapley failed: %s\n",
                   contributions.status().ToString().c_str());
      return 1;
    }
    std::printf("top %s pattern: [%s]  D=%+.3f\n", MetricName(metric),
                table.ItemsetName(items).c_str(), table.divergence(top[0]));
    std::printf("%s\n",
                FormatContributions(table, *contributions).c_str());
  }
  return 0;
}
