// Differential tests for the lattice-indexed divergence post-pass: the
// allocation-free link-walking implementations must agree with the
// pre-index reference algorithms (temporary itemsets + hash lookups)
// on seeded random tables across supports and thread counts, and
// guard-truncated tables must expose consistent partial links.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/corrective.h"
#include "core/explorer.h"
#include "core/global_divergence.h"
#include "core/pruning.h"
#include "core/shapley.h"
#include "stats/special.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace {

using testing::MakeEncoded;

// ---------------------------------------------------------------------
// Reference implementations: the pre-index algorithms, kept verbatim
// (modulo naming) as the differential oracle.

Result<std::vector<ItemContribution>> RefShapley(const PatternTable& table,
                                                 const Itemset& items) {
  if (!table.Contains(items)) {
    return Status::NotFound("itemset not in pattern table");
  }
  const size_t n = items.size();
  const double n_fact = Factorial(n);
  std::vector<ItemContribution> out;
  out.reserve(n);
  Status failure = Status::OK();
  for (uint32_t alpha : items) {
    const Itemset rest = Without(items, alpha);
    double value = 0.0;
    ForEachSubset(rest, [&](const Itemset& j) {
      if (!failure.ok()) return;
      const Result<double> with = table.Divergence(With(j, alpha));
      const Result<double> without = table.Divergence(j);
      if (!with.ok()) {
        failure = with.status();
        return;
      }
      if (!without.ok()) {
        failure = without.status();
        return;
      }
      const double weight =
          Factorial(j.size()) * Factorial(n - j.size() - 1) / n_fact;
      value += weight * (*with - *without);
    });
    if (!failure.ok()) return failure;
    out.push_back(ItemContribution{alpha, value});
  }
  return out;
}

std::vector<CorrectiveItem> RefCorrective(const PatternTable& table,
                                          const CorrectiveOptions& options) {
  std::vector<CorrectiveItem> out;
  for (size_t r = 0; r < table.size(); ++r) {
    const PatternRow row = table.row(r);
    const Itemset& k = row.items;
    if (k.empty()) continue;
    for (uint32_t alpha : k) {
      const Itemset base = Without(k, alpha);
      if (base.empty()) continue;
      const Result<double> base_div = table.Divergence(base);
      DIVEXP_CHECK(base_div.ok());
      const double factor =
          std::fabs(*base_div) - std::fabs(row.divergence);
      if (factor <= options.min_factor || factor <= 0.0) continue;
      CorrectiveItem c;
      c.base = base;
      c.item = alpha;
      c.base_divergence = *base_div;
      c.with_divergence = row.divergence;
      c.factor = factor;
      c.t = row.t;
      out.push_back(std::move(c));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CorrectiveItem& a, const CorrectiveItem& b) {
                     if (a.factor != b.factor) return a.factor > b.factor;
                     if (a.base.size() != b.base.size()) {
                       return a.base.size() < b.base.size();
                     }
                     if (a.base != b.base) return a.base < b.base;
                     return a.item < b.item;
                   });
  if (options.top_k != 0 && out.size() > options.top_k) {
    out.resize(options.top_k);
  }
  return out;
}

std::vector<size_t> RefPrune(const PatternTable& table, double epsilon) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.empty()) continue;
    bool redundant = false;
    for (uint32_t alpha : row.items) {
      const Itemset base = Without(row.items, alpha);
      const Result<double> base_div = table.Divergence(base);
      DIVEXP_CHECK(base_div.ok());
      if (std::fabs(row.divergence - *base_div) <= epsilon) {
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(i);
  }
  return kept;
}

Result<double> RefGlobalItemset(const PatternTable& table,
                                const Itemset& itemset) {
  const ItemCatalog& catalog = table.catalog();
  const size_t num_attrs = catalog.num_attributes();
  const std::vector<long double> fact = Factorials(num_attrs);
  const size_t i_len = itemset.size();
  long double total = 0.0L;
  for (size_t r = 0; r < table.size(); ++r) {
    const PatternRow row = table.row(r);
    const Itemset& k = row.items;
    if (k.size() < i_len || !IsSubset(itemset, k)) continue;
    long double prod = 1.0L;
    for (uint32_t id : k) {
      prod *= static_cast<long double>(
          catalog.domain_size(catalog.item(id).attribute));
    }
    const size_t b = k.size() - i_len;
    const long double weight =
        fact[b] * fact[num_attrs - b - i_len] / (fact[num_attrs] * prod);
    Itemset j;
    j.reserve(b);
    std::set_difference(k.begin(), k.end(), itemset.begin(),
                        itemset.end(), std::back_inserter(j));
    DIVEXP_ASSIGN_OR_RETURN(double dj, table.Divergence(j));
    total += weight * (row.divergence - dj);
  }
  return static_cast<double>(total);
}

// ---------------------------------------------------------------------
// Random-table fixture.

struct RandomCase {
  EncodedDataset encoded;
  std::vector<Outcome> outcomes;
};

RandomCase MakeRandomCase(uint64_t seed, size_t num_rows = 400) {
  Rng rng(seed);
  const std::vector<int> domains = {2, 3, 2, 4};
  std::vector<std::vector<int>> rows(num_rows,
                                     std::vector<int>(domains.size()));
  std::string outcomes;
  for (auto& row : rows) {
    for (size_t a = 0; a < domains.size(); ++a) {
      row[a] = static_cast<int>(rng.Int(0, domains[a] - 1));
    }
    const double p = 0.2 + 0.5 * (row[0] == 1) - 0.1 * (row[2] == 0);
    const double roll = rng.Uniform();
    outcomes += roll < 0.15 ? 'B' : (rng.Bernoulli(p) ? 'T' : 'F');
  }
  RandomCase c;
  c.encoded = MakeEncoded(rows, domains);
  c.outcomes = testing::OutcomesFromString(outcomes);
  return c;
}

PatternTable ExploreCase(const RandomCase& c, double support,
                         size_t num_threads = 1) {
  ExplorerOptions opts;
  opts.min_support = support;
  opts.num_threads = num_threads;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(c.encoded, c.outcomes);
  DIVEXP_CHECK(table.ok());
  return std::move(table).value();
}

const uint64_t kSeeds[] = {7, 23, 101};
const double kSupports[] = {0.01, 0.05, 0.2};
const size_t kThreads[] = {1, 2, 8};

// ---------------------------------------------------------------------

TEST(PostpassDifferentialTest, GlobalDivergenceMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    for (double support : kSupports) {
      const PatternTable table = ExploreCase(c, support);
      GlobalDivergenceOptions legacy_opts;
      legacy_opts.use_lattice_index = false;
      const auto legacy = ComputeGlobalItemDivergence(table, legacy_opts);
      for (size_t threads : kThreads) {
        GlobalDivergenceOptions gopts;
        gopts.num_threads = threads;
        const auto indexed = ComputeGlobalItemDivergence(table, gopts);
        ASSERT_EQ(indexed.size(), legacy.size());
        for (size_t i = 0; i < legacy.size(); ++i) {
          EXPECT_EQ(indexed[i].item, legacy[i].item);
          EXPECT_NEAR(indexed[i].global, legacy[i].global, 1e-12)
              << "seed=" << seed << " s=" << support
              << " threads=" << threads << " item=" << i;
          EXPECT_EQ(indexed[i].individual, legacy[i].individual);
        }
      }
    }
  }
}

TEST(PostpassDifferentialTest, ShapleyMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    const PatternTable table = ExploreCase(c, 0.05);
    size_t checked = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      const Itemset& items = table.row(i).items;
      if (items.size() < 2) continue;
      const auto got = ShapleyContributions(table, items);
      const auto want = RefShapley(table, items);
      ASSERT_TRUE(got.ok() && want.ok());
      ASSERT_EQ(got->size(), want->size());
      for (size_t a = 0; a < want->size(); ++a) {
        EXPECT_EQ((*got)[a].item, (*want)[a].item);
        EXPECT_NEAR((*got)[a].contribution, (*want)[a].contribution,
                    1e-12);
      }
      ++checked;
    }
    EXPECT_GT(checked, 10u);
  }
}

TEST(PostpassDifferentialTest, MarginalContributionMatchesReference) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.05);
  for (size_t i = 0; i < table.size(); ++i) {
    const PatternRow& row = table.row(i);
    if (row.items.empty()) continue;
    for (uint32_t alpha : row.items) {
      const auto got = MarginalContribution(table, row.items, alpha);
      ASSERT_TRUE(got.ok());
      const double want =
          row.divergence - *table.Divergence(Without(row.items, alpha));
      EXPECT_NEAR(*got, want, 1e-12);
    }
  }
}

TEST(PostpassDifferentialTest, CorrectiveItemsMatchReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    for (double support : kSupports) {
      const PatternTable table = ExploreCase(c, support);
      for (const double min_factor : {0.0, 0.02}) {
        CorrectiveOptions copts;
        copts.min_factor = min_factor;
        const auto got = FindCorrectiveItems(table, copts);
        const auto want = RefCorrective(table, copts);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].base, want[i].base);
          EXPECT_EQ(got[i].item, want[i].item);
          EXPECT_EQ(got[i].base_divergence, want[i].base_divergence);
          EXPECT_EQ(got[i].with_divergence, want[i].with_divergence);
          EXPECT_EQ(got[i].factor, want[i].factor);
          EXPECT_EQ(got[i].t, want[i].t);
        }
      }
    }
  }
}

TEST(PostpassDifferentialTest, PruningMatchesReference) {
  for (uint64_t seed : kSeeds) {
    const RandomCase c = MakeRandomCase(seed);
    const PatternTable table = ExploreCase(c, 0.02);
    for (const double eps : {0.0, 0.01, 0.05, 0.5}) {
      EXPECT_EQ(RedundancyPrune(table, eps), RefPrune(table, eps));
    }
  }
}

TEST(PostpassDifferentialTest, GlobalItemsetDivergenceMatchesReference) {
  const RandomCase c = MakeRandomCase(kSeeds[1]);
  const PatternTable table = ExploreCase(c, 0.05);
  size_t checked = 0;
  for (size_t i = 0; i < table.size() && checked < 50; ++i) {
    const Itemset& items = table.row(i).items;
    if (items.empty()) continue;
    const auto got = GlobalItemsetDivergence(table, items);
    const auto want = RefGlobalItemset(table, items);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_NEAR(*got, *want, 1e-12) << ItemsetDebugString(items);
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

// The table build itself must not depend on the thread count: stats
// and links are pure per-row computations.
TEST(PostpassDifferentialTest, CreateDeterministicAcrossThreads) {
  const RandomCase c = MakeRandomCase(kSeeds[2]);
  const PatternTable base = ExploreCase(c, 0.02, 1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    const PatternTable other = ExploreCase(c, 0.02, threads);
    ASSERT_EQ(other.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other.row(i).items, base.row(i).items);
      EXPECT_EQ(other.row(i).support, base.row(i).support);
      EXPECT_EQ(other.row(i).rate, base.row(i).rate);
      EXPECT_EQ(other.row(i).divergence, base.row(i).divergence);
      EXPECT_EQ(other.row(i).t, base.row(i).t);
      const auto a = base.row_links(i);
      const auto b = other.row_links(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

// The links of every complete table must point at exactly the
// immediate subsets.
TEST(PostpassDifferentialTest, SubsetLinksAreImmediateSubsets) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.05);
  for (size_t i = 0; i < table.size(); ++i) {
    const Itemset& items = table.row(i).items;
    const auto links = table.row_links(i);
    ASSERT_EQ(links.size(), items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      ASSERT_NE(links[j], PatternTable::kNoLink);
      EXPECT_EQ(table.row(links[j]).items, Without(items, items[j]));
    }
  }
}

// ---------------------------------------------------------------------
// Allocation accounting: the indexed hot paths must not materialize a
// single Itemset.

TEST(PostpassAllocationTest, GlobalDivergenceHotPathIsAllocationFree) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  const PatternTable table = ExploreCase(c, 0.01);
  for (size_t threads : kThreads) {
    GlobalDivergenceOptions gopts;
    gopts.num_threads = threads;
    const uint64_t before = ItemsetAllocCount();
    const auto globals = ComputeGlobalItemDivergence(table, gopts);
    EXPECT_EQ(ItemsetAllocCount(), before) << "threads=" << threads;
    ASSERT_FALSE(globals.empty());
  }
}

TEST(PostpassAllocationTest, PruneAndMarginalAreAllocationFree) {
  const RandomCase c = MakeRandomCase(kSeeds[1]);
  const PatternTable table = ExploreCase(c, 0.02);
  uint64_t before = ItemsetAllocCount();
  const auto kept = RedundancyPrune(table, 0.01);
  EXPECT_EQ(ItemsetAllocCount(), before);
  ASSERT_FALSE(kept.empty());

  const Itemset& items = table.row(kept.back()).items;
  before = ItemsetAllocCount();
  const auto marginal = MarginalContribution(table, items, items[0]);
  EXPECT_EQ(ItemsetAllocCount(), before);
  EXPECT_TRUE(marginal.ok());
}

// ---------------------------------------------------------------------
// Guard-truncated tables: links must be consistent (point at the right
// row or kNoLink), and every consumer must degrade gracefully.

ItemCatalog MakeTwoAttrCatalog() {
  ItemCatalog catalog;
  catalog.AddAttribute("a0", {"v0", "v1"});  // items 0, 1
  catalog.AddAttribute("a1", {"v0", "v1"});  // items 2, 3
  return catalog;
}

// Mined input listing the superset BEFORE its subsets, so a mid-pass
// truncation drops subsets of a kept pattern.
std::vector<MinedPattern> SupersetFirstPatterns() {
  std::vector<MinedPattern> mined;
  mined.push_back({Itemset{}, OutcomeCounts{5, 5, 0}});
  mined.push_back({Itemset{0, 2}, OutcomeCounts{3, 1, 0}});
  mined.push_back({Itemset{2}, OutcomeCounts{4, 2, 0}});
  mined.push_back({Itemset{0}, OutcomeCounts{4, 3, 0}});
  return mined;
}

// Create keeps a canonical prefix under its own guard, which is
// downward closed; holes come from a miner's emission-order truncation,
// whose output may hold a pattern without its subsets. These inputs
// are that shape.
TEST(TruncatedLatticeTest, AllLinksMissing) {
  auto table = PatternTable::Create(
      std::vector<MinedPattern>{{Itemset{}, OutcomeCounts{5, 5, 0}},
                                {Itemset{0, 2}, OutcomeCounts{3, 1, 0}}},
      MakeTwoAttrCatalog(), 10);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 2u);  // root + {0, 2}

  const auto links = table->row_links(1);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], PatternTable::kNoLink);
  EXPECT_EQ(links[1], PatternTable::kNoLink);

  // Consumers degrade instead of crashing.
  const auto globals = ComputeGlobalItemDivergence(*table);
  for (const auto& g : globals) EXPECT_EQ(g.global, 0.0);
  EXPECT_EQ(RedundancyPrune(*table, 0.0).size(), 1u);
  EXPECT_TRUE(FindCorrectiveItems(*table).empty());
  EXPECT_FALSE(ShapleyContributions(*table, Itemset{0, 2}).ok());
  EXPECT_FALSE(MarginalContribution(*table, Itemset{0, 2}, 0).ok());
  EXPECT_FALSE(GlobalItemsetDivergence(*table, Itemset{0, 2}).ok());
}

TEST(TruncatedLatticeTest, PartialLinksStayConsistent) {
  // {0} is missing; canonical order puts {2} at row 1, {0,2} at row 2.
  std::vector<MinedPattern> mined = SupersetFirstPatterns();
  mined.pop_back();
  auto table = PatternTable::Create(std::move(mined), MakeTwoAttrCatalog(),
                                    10);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 3u);  // root + {2} + {0, 2}
  const size_t pair = table->Find(Itemset{0, 2}).value();
  const size_t single = table->Find(Itemset{2}).value();

  const auto links = table->row_links(pair);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], single);  // {0,2} \ {0} = {2}
  EXPECT_EQ(links[1], PatternTable::kNoLink);  // {0} is missing
  // {2}'s immediate subset is the root.
  const auto single_links = table->row_links(single);
  ASSERT_EQ(single_links.size(), 1u);
  EXPECT_EQ(single_links[0], 0u);

  // The marginal over the surviving link works; the dropped one errors.
  EXPECT_TRUE(MarginalContribution(*table, Itemset{0, 2}, 0).ok());
  EXPECT_FALSE(MarginalContribution(*table, Itemset{0, 2}, 2).ok());
}

// The post-pass charges every kept row its columnar footprint,
// PatternTable::RowBytes, which grows with the row's itemset.
TEST(PatternTableAccountingTest, ChargesPerRowFootprint) {
  const RandomCase c = MakeRandomCase(kSeeds[0]);
  ExplorerOptions opts;
  opts.min_support = 0.05;
  RunGuard guard;  // unlimited: accounting only
  opts.guard = &guard;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(c.encoded, c.outcomes);
  ASSERT_TRUE(table.ok());
  uint64_t row_bytes = 0;
  for (size_t i = 1; i < table->size(); ++i) {
    row_bytes += PatternTable::RowBytes(table->row_items(i).size());
  }
  EXPECT_GE(guard.peak_memory_bytes(), row_bytes);
}

}  // namespace
}  // namespace divexp
