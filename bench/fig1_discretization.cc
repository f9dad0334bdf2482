// Experiment F1 — paper Figure 1: individual FPR divergence of the
// #prior items on COMPAS under the 3-interval and 6-interval
// discretizations (s = 0.05). Finer discretization never hides
// divergence (Property 3.1): the finer ">7" bin diverges more than the
// coarse ">3" bin.
#include <cstdio>

#include "bench_common.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

void PrintPriorItems(const PatternTable& table) {
  const ItemCatalog& catalog = table.catalog();
  auto attr = catalog.FindAttribute("#prior");
  if (!attr.ok()) return;
  const uint32_t first = catalog.first_item(*attr);
  for (uint32_t k = 0; k < catalog.domain_size(*attr); ++k) {
    const uint32_t id = first + k;
    auto idx = table.Find(Itemset{id});
    if (!idx.has_value()) {
      std::printf("  %-14s (below support)\n",
                  catalog.ItemName(id).c_str());
      continue;
    }
    std::printf("  %-14s d_FPR=%+.3f  sup=%.2f  t=%.1f\n",
                catalog.ItemName(id).c_str(), table.divergence(*idx),
                table.support(*idx), table.t(*idx));
  }
}

}  // namespace

int main() {
  std::printf(
      "== Figure 1: #prior item FPR divergence, 3 vs 6 intervals "
      "(s=0.05) ==\n\n");
  for (int bins : {3, 6}) {
    CompasOptions copts;
    copts.prior_bins = bins;
    auto ds = MakeCompas(copts);
    if (!ds.ok()) {
      std::fprintf(stderr, "compas generation failed\n");
      return 1;
    }
    const EncodedDataset encoded = Encode(*ds);
    const PatternTable table =
        Explore(encoded, *ds, Metric::kFalsePositiveRate, 0.05);
    std::printf("(%c) %d intervals:\n", bins == 3 ? 'a' : 'b', bins);
    PrintPriorItems(table);
    std::printf("\n");
  }
  return 0;
}
