// Ablation — cost of the post-exploration analyses over the complete
// pattern table: Shapley per pattern, global item divergence,
// corrective-item scan, redundancy pruning, lattice construction.
// These are the capabilities that the paper argues only a complete
// exploration enables; this measures what they cost.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/corrective.h"
#include "core/global_divergence.h"
#include "core/lattice.h"
#include "core/pruning.h"
#include "core/shapley.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

const PatternTable& AdultTable() {
  static const PatternTable* table = [] {
    const BenchmarkDataset ds = LoadDataset("adult");
    const EncodedDataset encoded = Encode(ds);
    return new PatternTable(
        Explore(encoded, ds, Metric::kFalsePositiveRate, 0.02));
  }();
  return *table;
}

void BM_ShapleyTopPattern(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  const ItemSpan top = table.row_items(table.TopK(1)[0]);
  const Itemset items(top.begin(), top.end());
  for (auto _ : state) {
    auto contributions = ShapleyContributions(table, items);
    benchmark::DoNotOptimize(contributions);
  }
}
BENCHMARK(BM_ShapleyTopPattern)->Unit(benchmark::kMicrosecond);

void BM_GlobalItemDivergence(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  for (auto _ : state) {
    auto globals = ComputeGlobalItemDivergence(table);
    benchmark::DoNotOptimize(globals);
  }
  state.counters["patterns"] = static_cast<double>(table.size());
}
BENCHMARK(BM_GlobalItemDivergence)->Unit(benchmark::kMillisecond);

void BM_CorrectiveScan(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  for (auto _ : state) {
    auto corrective = FindCorrectiveItems(table);
    benchmark::DoNotOptimize(corrective);
  }
}
BENCHMARK(BM_CorrectiveScan)->Unit(benchmark::kMillisecond);

void BM_RedundancyPrune(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  for (auto _ : state) {
    auto kept = RedundancyPrune(table, 0.05);
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_RedundancyPrune)->Unit(benchmark::kMillisecond);

void BM_BuildLattice(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  const ItemSpan top = table.row_items(table.TopK(1)[0]);
  const Itemset items(top.begin(), top.end());
  for (auto _ : state) {
    auto lattice = BuildLattice(table, items);
    benchmark::DoNotOptimize(lattice);
  }
}
BENCHMARK(BM_BuildLattice)->Unit(benchmark::kMicrosecond);

void BM_TopKRanking(benchmark::State& state) {
  const PatternTable& table = AdultTable();
  for (auto _ : state) {
    auto top = table.TopK(10);
    benchmark::DoNotOptimize(top);
  }
}
BENCHMARK(BM_TopKRanking)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
