// Helper for core tests: run a full exploration over a small dataset.
#ifndef DIVEXP_TESTS_TESTING_TEST_EXPLORE_H_
#define DIVEXP_TESTS_TESTING_TEST_EXPLORE_H_

#include <string>
#include <vector>

#include "core/explorer.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace testing {

/// Explores integer cell data + outcome string with the given support.
inline PatternTable ExploreForTest(
    const std::vector<std::vector<int>>& rows,
    const std::vector<int>& domain_sizes, const std::string& outcomes,
    double min_support, MinerKind miner = MinerKind::kFpGrowth) {
  const EncodedDataset ds = MakeEncoded(rows, domain_sizes);
  ExplorerOptions opts;
  opts.min_support = min_support;
  opts.miner = miner;
  DivergenceExplorer explorer(opts);
  auto table =
      explorer.ExploreOutcomes(ds, OutcomesFromString(outcomes));
  DIVEXP_CHECK(table.ok());
  return std::move(table).value();
}

/// Explores `rows` random records over `attrs` attributes of `domain`
/// values each, with outcomes T/F/⊥ drawn at 35/45/20%.
inline PatternTable RandomTableForTest(uint64_t seed, size_t rows = 120,
                                       size_t attrs = 3, int domain = 2,
                                       double support = 0.01) {
  Rng rng(seed);
  std::vector<std::vector<int>> cells(rows, std::vector<int>(attrs));
  std::string outcomes;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < attrs; ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domain));
    }
    const double u = rng.Uniform();
    outcomes += (u < 0.35 ? 'T' : u < 0.8 ? 'F' : 'B');
  }
  return ExploreForTest(cells, std::vector<int>(attrs, domain), outcomes,
                        support);
}

/// A table of only the empty itemset and one `length`-item row over
/// binary attributes a0=1, a1=1, ...: a long itemset kept without its
/// subsets, as a guard truncation can leave one. Its rows are in
/// canonical order, so it also writes as a serving artifact.
inline PatternTable LongItemsetTable(size_t length) {
  ItemCatalog catalog;
  Itemset items;
  for (size_t a = 0; a < length; ++a) {
    const uint32_t attr =
        catalog.AddAttribute("a" + std::to_string(a), {"0", "1"});
    items.push_back(catalog.first_item(attr) + 1);
  }
  std::vector<MinedPattern> mined = {{Itemset{}, OutcomeCounts{5, 4, 1}},
                                     {items, OutcomeCounts{2, 1, 0}}};
  auto table = PatternTable::Create(std::move(mined), std::move(catalog),
                                    /*num_rows=*/10);
  DIVEXP_CHECK(table.ok());
  return std::move(table).value();
}

// Every itemset of up to `max_len` items over `attrs` attributes of
// `domain` values, with tallies drawn from a palette of three values
// each: many rows share a rate, so many corrective pairs share a factor
// and the ranking leans on its tie-breaks; the same holds for top-k
// keys and supports.
inline PatternTable PlantedTieTable(uint64_t seed, size_t attrs,
                                    int domain, size_t max_len) {
  Rng rng(seed);
  ItemCatalog catalog;
  std::vector<std::string> values;
  for (int v = 0; v < domain; ++v) values.push_back(std::to_string(v));
  for (size_t a = 0; a < attrs; ++a) {
    catalog.AddAttribute("a" + std::to_string(a), values);
  }
  std::vector<MinedPattern> mined = {{Itemset{}, OutcomeCounts{40, 60, 0}}};
  std::vector<Itemset> frontier = {Itemset{}};
  for (size_t len = 1; len <= max_len; ++len) {
    std::vector<Itemset> next;
    for (const Itemset& prefix : frontier) {
      const size_t first_attr =
          prefix.empty() ? 0 : catalog.item(prefix.back()).attribute + 1;
      for (size_t a = first_attr; a < attrs; ++a) {
        for (int v = 0; v < domain; ++v) {
          Itemset items = prefix;
          items.push_back(catalog.first_item(static_cast<uint32_t>(a)) +
                          static_cast<uint32_t>(v));
          mined.push_back({items, OutcomeCounts{1 + rng.Below(3),
                                                1 + rng.Below(3),
                                                rng.Below(2)}});
          next.push_back(std::move(items));
        }
      }
    }
    frontier = std::move(next);
  }
  auto table = PatternTable::Create(std::move(mined), std::move(catalog),
                                    /*num_rows=*/100);
  DIVEXP_CHECK_OK(table.status());
  return std::move(table).value();
}

}  // namespace testing
}  // namespace divexp

#endif  // DIVEXP_TESTS_TESTING_TEST_EXPLORE_H_
