#include "core/global_divergence.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "testing/test_explore.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::ExploreForTest;

// A dataset where every complete itemset is frequent, so the
// approximation (Eq. 8) coincides with the exact definition (Eq. 6) and
// Theorem 4.1's properties must hold exactly.
PatternTable MakeFullTable(uint64_t seed, size_t attrs, int domain,
                           size_t copies_per_cell) {
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  Rng rng(seed);
  std::vector<int> cell(attrs, 0);
  // Enumerate the full grid; add `copies_per_cell` rows per cell.
  const size_t total =
      static_cast<size_t>(std::pow(domain, static_cast<double>(attrs)));
  for (size_t idx = 0; idx < total; ++idx) {
    size_t rem = idx;
    for (size_t a = 0; a < attrs; ++a) {
      cell[a] = static_cast<int>(rem % domain);
      rem /= domain;
    }
    for (size_t k = 0; k < copies_per_cell; ++k) {
      rows.push_back(cell);
      outcomes += rng.Bernoulli(0.3 + 0.4 * cell[0]) ? 'T' : 'F';
    }
  }
  return ExploreForTest(rows, std::vector<int>(attrs, domain), outcomes,
                        1e-9);
}

TEST(GlobalDivergenceTest, EfficiencyTheorem41) {
  // Σ_items Δ^g(item) == (1/|I_A|) Σ_{I ∈ I_A} Δ(I)  (Eq. 7).
  for (uint64_t seed : {1u, 5u}) {
    const PatternTable table = MakeFullTable(seed, 3, 2, 4);
    const auto globals = ComputeGlobalItemDivergence(table);
    double lhs = 0.0;
    for (const auto& g : globals) lhs += g.global;

    double rhs = 0.0;
    size_t complete = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      if (table.row(i).items.size() == 3) {
        rhs += table.row(i).divergence;
        ++complete;
      }
    }
    ASSERT_EQ(complete, 8u);  // 2^3 complete itemsets all frequent
    rhs /= static_cast<double>(complete);
    EXPECT_NEAR(lhs, rhs, 1e-9);
  }
}

TEST(GlobalDivergenceTest, EfficiencyWithMixedDomains) {
  // Same theorem with m_a = {3, 2}: checks the 1/Π m_b normalization.
  const PatternTable table = MakeFullTable(3, 2, 3, 5);
  const auto globals = ComputeGlobalItemDivergence(table);
  double lhs = 0.0;
  for (const auto& g : globals) lhs += g.global;
  double rhs = 0.0;
  size_t complete = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i).items.size() == 2) {
      rhs += table.row(i).divergence;
      ++complete;
    }
  }
  ASSERT_EQ(complete, 9u);
  EXPECT_NEAR(lhs, rhs / static_cast<double>(complete), 1e-9);
}

TEST(GlobalDivergenceTest, NullAttributeGetsZero) {
  // Attribute a1 never changes the divergence -> Δ^g(a1=·) == 0
  // (null-items property of Theorem 4.1). Build outcomes that depend
  // only on a0, identically distributed across a1 values.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int a0 : {0, 1}) {
    for (int a1 : {0, 1}) {
      for (int k = 0; k < 6; ++k) {
        rows.push_back({a0, a1});
        outcomes += ((a0 == 1) == (k < 4)) ? 'T' : 'F';
      }
    }
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 1e-9);
  const auto globals = ComputeGlobalItemDivergence(table);
  for (const auto& g : globals) {
    if (table.catalog().item(g.item).attribute == 1) {
      EXPECT_NEAR(g.global, 0.0, 1e-12);
    } else {
      EXPECT_GT(std::fabs(g.global), 1e-6);
    }
  }
}

// Def. 4.3 from scratch: Δ^g(α) averages, over every complete itemset
// I (one value per attribute), α's Shapley value in I, each summed over
// the explicit subsets J ⊆ I \ {α} with weight |J|!(n-|J|-1)!/n!.
TEST(GlobalDivergenceTest, MatchesDefinitionByBruteForce) {
  auto factorial = [](size_t k) { return std::tgamma(k + 1.0); };
  for (const auto& [seed, n, domain] :
       {std::tuple{1u, size_t{3}, 2}, {7u, size_t{2}, 3},
        {9u, size_t{4}, 2}}) {
    const PatternTable table = MakeFullTable(seed, n, domain, 3);
    const ItemCatalog& catalog = table.catalog();
    std::vector<double> want(catalog.num_items(), 0.0);
    size_t complete = 0;
    std::vector<uint32_t> values(n, 0);  // odometer over the grid
    for (bool more = true; more;) {
      ++complete;
      Itemset full;
      for (size_t b = 0; b < n; ++b) {
        full.push_back(catalog.first_item(b) + values[b]);
      }
      for (size_t alpha = 0; alpha < n; ++alpha) {
        for (uint32_t mask = 0; mask < (1u << n); ++mask) {
          if ((mask >> alpha) & 1) continue;
          Itemset j;
          Itemset with;
          for (size_t b = 0; b < n; ++b) {
            if ((mask >> b) & 1) j.push_back(full[b]);
            if ((mask >> b) & 1 || b == alpha) with.push_back(full[b]);
          }
          const double weight = factorial(j.size()) *
                                factorial(n - j.size() - 1) / factorial(n);
          want[full[alpha]] +=
              weight * (*table.Divergence(with) - *table.Divergence(j));
        }
      }
      more = false;
      for (size_t b = n; b-- > 0 && !more;) {
        more = ++values[b] < static_cast<uint32_t>(domain);
        if (!more) values[b] = 0;
      }
    }
    for (const GlobalItemDivergence& g :
         ComputeGlobalItemDivergence(table)) {
      EXPECT_NEAR(g.global, want[g.item] / static_cast<double>(complete),
                  1e-12)
          << "seed " << seed << " item " << g.item;
    }
  }
}

TEST(GlobalDivergenceTest, IndividualFieldMatchesSingleItemDivergence) {
  const PatternTable table = MakeFullTable(9, 3, 2, 3);
  const auto globals = ComputeGlobalItemDivergence(table);
  for (const auto& g : globals) {
    auto idx = table.Find(Itemset{g.item});
    ASSERT_TRUE(idx.has_value());
    EXPECT_DOUBLE_EQ(g.individual, table.row(*idx).divergence);
  }
}

TEST(GlobalDivergenceTest, SingleItemMatchesGeneralItemsetForm) {
  const PatternTable table = MakeFullTable(11, 3, 2, 3);
  const auto globals = ComputeGlobalItemDivergence(table);
  for (const auto& g : globals) {
    auto general = GlobalItemsetDivergence(table, Itemset{g.item});
    ASSERT_TRUE(general.ok());
    EXPECT_NEAR(*general, g.global, 1e-12);
  }
}

TEST(GlobalDivergenceTest, Theorem42IndividualAndGlobalDiffer) {
  // Miniature of the paper's artificial construction (Theorem 4.2 /
  // Fig. 4): "false positives" (T) occur only on half of the a0 == a1
  // instances — the other half are ⊥ (they are true positives) — and
  // mismatched instances are F. Individually each item has exactly zero
  // divergence (f = 1/3 everywhere), yet jointly the items drive
  // divergence, which only the global measure attributes to them.
  std::vector<std::vector<int>> rows;
  std::string outcomes;
  for (int a0 : {0, 1}) {
    for (int a1 : {0, 1}) {
      for (int k = 0; k < 10; ++k) {
        rows.push_back({a0, a1});
        if (a0 == a1) {
          outcomes += (k < 5) ? 'T' : 'B';
        } else {
          outcomes += 'F';
        }
      }
    }
  }
  const PatternTable table = ExploreForTest(rows, {2, 2}, outcomes, 1e-9);
  const auto globals = ComputeGlobalItemDivergence(table);
  for (const auto& g : globals) {
    EXPECT_NEAR(g.individual, 0.0, 1e-12)
        << table.catalog().ItemName(g.item);
    EXPECT_GT(std::fabs(g.global), 0.01)
        << table.catalog().ItemName(g.item);
  }
}

TEST(GlobalDivergenceTest, LinearityInTheOutcome) {
  // Theorem 4.1 linearity, specialized: global divergence of the
  // accuracy outcome equals −1 × that of the error outcome (ACC = 1−ER
  // pointwise, so Δ_ACC = −Δ_ER on every itemset).
  Rng rng(21);
  std::vector<std::vector<int>> rows;
  std::vector<int> preds, truths;
  for (int i = 0; i < 160; ++i) {
    rows.push_back({static_cast<int>(rng.Below(2)),
                    static_cast<int>(rng.Below(2))});
    preds.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    truths.push_back(rng.Bernoulli(0.4 + 0.3 * rows.back()[0]) ? 1 : 0);
  }
  const EncodedDataset ds = testing::MakeEncoded(rows, {2, 2});
  ExplorerOptions opts;
  opts.min_support = 1e-9;
  DivergenceExplorer explorer(opts);
  auto err = explorer.Explore(ds, preds, truths, Metric::kErrorRate);
  auto acc = explorer.Explore(ds, preds, truths, Metric::kAccuracy);
  ASSERT_TRUE(err.ok());
  ASSERT_TRUE(acc.ok());
  const auto g_err = ComputeGlobalItemDivergence(*err);
  const auto g_acc = ComputeGlobalItemDivergence(*acc);
  ASSERT_EQ(g_err.size(), g_acc.size());
  for (size_t i = 0; i < g_err.size(); ++i) {
    EXPECT_NEAR(g_err[i].global, -g_acc[i].global, 1e-9);
  }
}

TEST(GlobalItemsetDivergenceTest, ErrorsOnBadInput) {
  const PatternTable table = MakeFullTable(1, 2, 2, 2);
  EXPECT_FALSE(GlobalItemsetDivergence(table, Itemset{}).ok());
  EXPECT_FALSE(GlobalItemsetDivergence(table, Itemset{999}).ok());
}

}  // namespace
}  // namespace divexp
