// Ablation — multi-metric exploration (paper §5's "multiple outcome
// functions simultaneously" extension): one confusion-tally mining run
// vs 12 independent single-metric explorations.
#include <cstdio>

#include "bench_common.h"
#include "core/multi.h"
#include "util/stopwatch.h"

using namespace divexp;
using namespace divexp::bench;

int main() {
  std::printf(
      "== Ablation: multi-metric table vs 12 single-metric runs "
      "(s=0.05) ==\n\n");
  std::printf("%-11s %14s %14s %8s\n", "dataset", "12 singles(ms)",
              "multi(ms)", "speedup");
  for (const std::string& name : {"compas", "adult", "bank"}) {
    const BenchmarkDataset ds = LoadDataset(name);
    const EncodedDataset encoded = Encode(ds);
    ExplorerOptions opts;
    opts.min_support = 0.05;

    Stopwatch sw;
    DivergenceExplorer single(opts);
    size_t total_patterns = 0;
    for (Metric metric : kAllMetrics) {
      auto table =
          single.Explore(encoded, ds.predictions, ds.truth, metric);
      DIVEXP_CHECK(table.ok());
      total_patterns += table->size();
    }
    const double singles_ms = sw.Millis();

    sw.Restart();
    MultiExplorer multi(opts);
    auto mtable = multi.Explore(encoded, ds.predictions, ds.truth);
    DIVEXP_CHECK(mtable.ok());
    const double multi_ms = sw.Millis();
    DIVEXP_CHECK(mtable->size() * 12 == total_patterns);

    std::printf("%-11s %14.1f %14.1f %7.1fx\n", name.c_str(), singles_ms,
                multi_ms, singles_ms / multi_ms);
  }
  return 0;
}
