// Example: manual slicing vs automatic discovery.
//
// Tools like TFMA and MLCube (paper §2) evaluate metrics on subgroups
// the *user* names — which works only for the subgroups someone thought
// to check. This example explores the data once, reads a hand-written
// watchlist off the complete pattern table, and shows what the
// watchlist missed.
#include <algorithm>
#include <cstdio>

#include "core/explorer.h"
#include "core/report.h"
#include "data/encoder.h"
#include "datasets/datasets.h"

using namespace divexp;

int main() {
  auto ds = MakeCompas();
  DIVEXP_CHECK(ds.ok());
  auto encoded = EncodeDataFrame(ds->discretized);
  DIVEXP_CHECK(encoded.ok());

  // 1. Automatic exploration: every frequent subgroup, with its FPR
  //    divergence.
  ExplorerOptions opts;
  opts.min_support = 0.05;
  DivergenceExplorer explorer(opts);
  auto table = explorer.Explore(*encoded, ds->predictions, ds->truth,
                                Metric::kFalsePositiveRate);
  DIVEXP_CHECK(table.ok());

  // 2. The watchlist a fairness auditor might write by hand: single
  //    protected attributes and one known intersection. Each is a row
  //    of the complete table.
  const std::vector<std::vector<std::pair<std::string, std::string>>>
      watchlist = {
          {{"race", "Afr-Am"}},
          {{"race", "Cauc"}},
          {{"sex", "Female"}},
          {{"race", "Afr-Am"}, {"sex", "Male"}},
      };
  std::printf("manual watchlist (TFMA-style), FPR divergence:\n");
  double watch_max = 0.0;
  for (const auto& spec : watchlist) {
    auto items = table->ParseItemset(spec);
    DIVEXP_CHECK(items.ok());
    const auto row = table->Find(*items);
    DIVEXP_CHECK(row.has_value());
    std::printf("  %-28s sup=%.2f  d=%+.3f  t=%.1f\n",
                table->ItemsetName(*items).c_str(), table->support(*row),
                table->divergence(*row), table->t(*row));
    watch_max = std::max(watch_max, table->divergence(*row));
  }

  const auto top = table->TopK(5);
  std::printf("\nautomatic exploration, top-5 FPR divergence:\n%s",
              FormatPatternRows(*table, top, "d_FPR").c_str());

  // 3. The gap: how much worse is the worst discovered subgroup than
  //    the worst watched one?
  const double found_max = table->divergence(top[0]);
  std::printf(
      "\nworst watched subgroup: d=%+.3f; worst discovered: d=%+.3f "
      "(%.1fx larger)\n",
      watch_max, found_max, found_max / watch_max);
  std::printf(
      "the automatic search surfaces intersections no one put on the "
      "watchlist.\n");
  return 0;
}
