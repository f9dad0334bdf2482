// Experiment F8 — paper Figure 8: item contributions to the top
// FPR- and FNR-divergent adult patterns (s = 0.05).
#include <cstdio>

#include "bench_common.h"
#include "core/report.h"
#include "core/shapley.h"

using namespace divexp;
using namespace divexp::bench;

int main() {
  const BenchmarkDataset ds = LoadDataset("adult");
  const EncodedDataset encoded = Encode(ds);

  std::printf(
      "== Figure 8: item contributions, adult top patterns (s=0.05) "
      "==\n\n");
  for (Metric metric :
       {Metric::kFalsePositiveRate, Metric::kFalseNegativeRate}) {
    const PatternTable table = Explore(encoded, ds, metric, 0.05);
    const auto top = table.TopK(1);
    if (top.empty()) continue;
    const ItemSpan top_items = table.row_items(top[0]);
    const Itemset items(top_items.begin(), top_items.end());
    auto contributions = ShapleyContributions(table, items);
    if (!contributions.ok()) return 1;
    std::printf("(%c) top %s pattern: [%s]  D=%+.3f\n",
                metric == Metric::kFalsePositiveRate ? 'a' : 'b',
                MetricName(metric),
                table.ItemsetName(items).c_str(), table.divergence(top[0]));
    std::printf("%s\n",
                FormatContributions(table, *contributions).c_str());
  }
  return 0;
}
