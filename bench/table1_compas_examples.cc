// Experiment T1 — paper Table 1: example COMPAS patterns with their
// FPR / FNR, against overall FPR ≈ 0.088 and FNR ≈ 0.698.
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace divexp;
using namespace divexp::bench;

namespace {

void PrintPattern(const PatternTable& table,
                  const std::vector<std::pair<std::string, std::string>>&
                      description,
                  const char* metric) {
  auto items = table.ParseItemset(description);
  if (!items.ok()) {
    std::printf("  (pattern unavailable: %s)\n",
                items.status().ToString().c_str());
    return;
  }
  auto idx = table.Find(*items);
  if (!idx.has_value()) {
    std::printf("  %-55s %s: (below support threshold)\n",
                table.ItemsetName(*items).c_str(), metric);
    return;
  }
  std::printf("  %-55s %s=%.3f (D=%+.3f, sup=%.2f)\n",
              table.ItemsetName(*items).c_str(), metric, table.rate(*idx),
              table.divergence(*idx), table.support(*idx));
}

}  // namespace

int main() {
  const BenchmarkDataset ds = LoadDataset("compas");
  const EncodedDataset encoded = Encode(ds);
  const PatternTable fpr =
      Explore(encoded, ds, Metric::kFalsePositiveRate, 0.01);
  const PatternTable fnr =
      Explore(encoded, ds, Metric::kFalseNegativeRate, 0.01);

  std::printf("== Table 1: example COMPAS patterns ==\n");
  std::printf("overall FPR=%.3f (paper 0.088), FNR=%.3f (paper 0.698)\n\n",
              fpr.global_rate(), fnr.global_rate());

  std::printf("FPR patterns:\n");
  PrintPattern(fpr,
               {{"age", "25-45"},
                {"#prior", ">3"},
                {"race", "Afr-Am"},
                {"sex", "Male"}},
               "FPR");
  PrintPattern(fpr, {{"race", "Afr-Am"}, {"sex", "Male"}}, "FPR");
  PrintPattern(
      fpr, {{"race", "Afr-Am"}, {"sex", "Male"}, {"#prior", ">3"}},
      "FPR");
  PrintPattern(
      fpr, {{"race", "Afr-Am"}, {"sex", "Male"}, {"#prior", "0"}},
      "FPR");
  std::printf("\nFNR patterns:\n");
  PrintPattern(fnr, {{"age", ">45"}, {"race", "Cauc"}}, "FNR");
  return 0;
}
