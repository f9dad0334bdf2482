// SON merge unit tests: shard planning, exact phase-2 recounts, and
// the edge cases that matter for degradation — empty shard tables,
// single-row shards, duplicate contributions with disagreeing tallies,
// and fingerprint-mismatch rejection — plus a seeded differential of
// the bitmap recount against a from-definition row scan.
#include "shard/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fpm/itemset.h"
#include "obs/metrics.h"
#include "testing/pattern_buffers.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace shard {
namespace {

using divexp::testing::BufferOf;
using divexp::testing::MakeEncoded;
using divexp::testing::SameRows;

// Two binary attributes; item ids are a0=v0 -> 0, a0=v1 -> 1,
// a1=v0 -> 2, a1=v1 -> 3.
struct Fixture {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

Fixture MakeFixture() {
  Fixture f;
  f.dataset = MakeEncoded(
      {{0, 0}, {0, 0}, {0, 1}, {1, 0}, {0, 0}, {1, 1}}, {2, 2});
  f.outcomes = divexp::testing::OutcomesFromString("TFTBTF");
  return f;
}

ShardMergeOptions LowSupport() {
  ShardMergeOptions options;
  options.min_support = 0.1;
  return options;
}

MinedPattern Candidate(std::vector<uint32_t> items, uint64_t t = 0,
                       uint64_t ff = 0, uint64_t bot = 0) {
  MinedPattern p;
  p.items = std::move(items);
  p.counts.t = t;
  p.counts.f = ff;
  p.counts.bot = bot;
  return p;
}

std::optional<MinedPattern> Find(const ShardMergeResult& result,
                                 const Itemset& items) {
  for (const MinedPattern& p : result.patterns.ToPatterns()) {
    if (p.items == items) return p;
  }
  return std::nullopt;
}

TEST(ShardPlanTest, BalancedContiguousSplit) {
  const std::vector<ShardRange> plan = MakeShardPlan(10, 4);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].size(), 3u);
  EXPECT_EQ(plan[1].size(), 3u);
  EXPECT_EQ(plan[2].size(), 2u);
  EXPECT_EQ(plan[3].size(), 2u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[3].end, 10u);
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].begin, plan[i - 1].end);
  }
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptyTail) {
  const std::vector<ShardRange> plan = MakeShardPlan(3, 5);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan[0].size(), 1u);
  EXPECT_EQ(plan[2].size(), 1u);
  EXPECT_EQ(plan[3].size(), 0u);
  EXPECT_EQ(plan[4].size(), 0u);
}

TEST(ShardPlanTest, SingleShardCoversEverything) {
  const std::vector<ShardRange> plan = MakeShardPlan(7, 1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 7u);
}

TEST(ShardMergeTest, EmptyShardTableContributesNothing) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 2);
  // One shard mined nothing (empty pattern vector): the merge must
  // still produce the whole-population row with exact totals.
  std::vector<ShardContribution> contributions;
  contributions.push_back(ShardContribution{0, 11, {}});
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, true},
                                        contributions, LowSupport());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->patterns.size(), 1u);  // just the empty itemset
  EXPECT_TRUE(result->patterns.row_items(0).empty());
  EXPECT_EQ(result->patterns.counts(0).t, 3u);
  EXPECT_EQ(result->patterns.counts(0).f, 2u);
  EXPECT_EQ(result->patterns.counts(0).bot, 1u);
  EXPECT_EQ(result->covered_rows, 6u);
  EXPECT_EQ(result->candidates, 0u);
}

TEST(ShardMergeTest, SingleRowShardRecountsExactly) {
  const Fixture f = MakeFixture();
  // Shard 1 is the single row 5 = (a0=v1, a1=v1, outcome F).
  const std::vector<ShardRange> plan = {{0, 5}, {5, 6}};
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      ShardContribution{1, 22, BufferOf({Candidate({1}), Candidate({1, 3})})});
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, true},
                                        contributions, LowSupport());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // {1} = a0=v1 matches rows 3 (B) and 5 (F) across the whole dataset;
  // the recount is global even though the candidate came from a
  // one-row shard.
  const std::optional<MinedPattern> p = Find(*result, {1});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->counts.t, 0u);
  EXPECT_EQ(p->counts.f, 1u);
  EXPECT_EQ(p->counts.bot, 1u);
  // {1,3} needs both {1} and {3} kept; {3} was never a candidate, so
  // the closure pass drops the pair.
  EXPECT_FALSE(Find(*result, {1, 3}).has_value());
}

TEST(ShardMergeTest, DuplicatePatternWithDifferingTalliesIsRecounted) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 2);
  // Both shards claim {0} with wildly wrong, mutually disagreeing
  // tallies; phase 2 must ignore every claimed count and recount from
  // the dataset: {0} matches rows 0,1,2,4 -> t=3 f=1 bot=0.
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      ShardContribution{0, 11, BufferOf({Candidate({0}, 100, 50, 25)})});
  contributions.push_back(
      ShardContribution{1, 22, BufferOf({Candidate({0}, 1, 2, 3)})});
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, true},
                                        contributions, LowSupport());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates, 1u);  // duplicates collapse
  const std::optional<MinedPattern> p = Find(*result, {0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->counts.t, 3u);
  EXPECT_EQ(p->counts.f, 1u);
  EXPECT_EQ(p->counts.bot, 0u);
}

TEST(ShardMergeTest, FingerprintMismatchIsRejected) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 2);
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      ShardContribution{0, 999, BufferOf({Candidate({0})})});  // wrong stamp
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, true},
                                        contributions, LowSupport());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("fingerprint mismatch"),
            std::string::npos);
}

TEST(ShardMergeTest, UnknownShardIsRejected) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 2);
  std::vector<ShardContribution> contributions;
  contributions.push_back(ShardContribution{7, 0, BufferOf({Candidate({0})})});
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, true},
                                        contributions, LowSupport());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardMergeTest, ExcludedShardRowsDoNotEnterTheTallies) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 2);  // 3 + 3
  // Drop shard 1 (rows 3..5); candidates may still come from it.
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      ShardContribution{1, 22, BufferOf({Candidate({0})})});
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11, 22}, {true, false},
                                        contributions, LowSupport());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->covered_rows, 3u);
  // Totals over rows 0..2 only: T, F, T.
  EXPECT_EQ(result->patterns.counts(0).t, 2u);
  EXPECT_EQ(result->patterns.counts(0).f, 1u);
  EXPECT_EQ(result->patterns.counts(0).bot, 0u);
  // {0} matches rows 0,1,2 within the covered range.
  const std::optional<MinedPattern> p = Find(*result, {0});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->counts.total(), 3u);
}

TEST(ShardMergeTest, ClosureDropsCandidatesWithMissingSubsets) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 1);
  // A stale checkpoint may surface {0,2} without {2}; the closure pass
  // must drop the pair so every kept pattern's subset chain exists.
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      ShardContribution{0, 11, BufferOf({Candidate({0}), Candidate({0, 2})})});
  auto result =
      MergeShardContributions(f.dataset, f.outcomes, plan, {11}, {true},
                              contributions, LowSupport());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Find(*result, {0}).has_value());
  EXPECT_FALSE(Find(*result, {0, 2}).has_value());
  // With the subset present the pair survives.
  contributions[0].patterns.Append(Itemset{2}, {});
  result =
      MergeShardContributions(f.dataset, f.outcomes, plan, {11}, {true},
                              contributions, LowSupport());
  ASSERT_TRUE(result.ok());
  const std::optional<MinedPattern> pair = Find(*result, {0, 2});
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->counts.t, 2u);   // rows 0, 4
  EXPECT_EQ(pair->counts.f, 1u);   // row 1
  EXPECT_EQ(pair->counts.bot, 0u);
}

TEST(ShardMergeTest, MaxLengthFiltersLongCandidates) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 1);
  std::vector<ShardContribution> contributions;
  contributions.push_back(ShardContribution{
      0, 11, BufferOf({Candidate({0}), Candidate({2}), Candidate({0, 2})})});
  ShardMergeOptions options = LowSupport();
  options.max_length = 1;
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11}, {true}, contributions,
                                        options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates, 2u);
  EXPECT_FALSE(Find(*result, {0, 2}).has_value());
}

TEST(ShardMergeTest, BelowThresholdCandidatesAreFilteredOut) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 1);
  std::vector<ShardContribution> contributions;
  // {1,3} matches only row 5 -> support 1/6; threshold 0.5 needs 3.
  contributions.push_back(
      ShardContribution{0, 11, BufferOf({Candidate({0}), Candidate({1})})});
  ShardMergeOptions options;
  options.min_support = 0.5;
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan,
                                        {11}, {true}, contributions,
                                        options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Find(*result, {0}).has_value());  // 4 matches >= 3
  EXPECT_FALSE(Find(*result, {1}).has_value());  // 2 matches < 3
}

TEST(ShardMergeTest, RejectsDisagreeingPlanVectors) {
  const Fixture f = MakeFixture();
  auto result = MergeShardContributions(
      f.dataset, f.outcomes, MakeShardPlan(6, 2), {11}, {true, true}, {},
      LowSupport());
  EXPECT_FALSE(result.ok());
  auto result2 = MergeShardContributions(
      f.dataset, f.outcomes, MakeShardPlan(6, 2), {11, 22}, {true}, {},
      LowSupport());
  EXPECT_FALSE(result2.ok());
}

TEST(ShardMergeTest, InfrequentItemCandidateIsSkippedWithoutChange) {
  const Fixture f = MakeFixture();
  const std::vector<ShardRange> plan = MakeShardPlan(6, 1);
  ShardMergeOptions options;
  options.min_support = 0.5;  // min_count 3 of 6
  // {0} and {2} match 4 rows each; {1} matches 2, so {0,1} is bounded
  // by 2 < 3 and must be skipped without a recount.
  std::vector<ShardContribution> base;
  base.push_back(ShardContribution{
      0, 11, BufferOf({Candidate({0}), Candidate({2}), Candidate({0, 2})})});
  auto expected = MergeShardContributions(f.dataset, f.outcomes, plan,
                                          {11}, {true}, base, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  std::vector<ShardContribution> with_infrequent = base;
  with_infrequent[0].patterns.Append(Itemset{0, 1}, {});
  obs::Counter* skips = obs::MetricsRegistry::Default().GetCounter(
      "fpm.kernel.ubound.skips");
  const uint64_t skips0 = skips->Value();
  obs::StageCollector stages;
  options.stages = &stages;
  auto result = MergeShardContributions(f.dataset, f.outcomes, plan, {11},
                                        {true}, with_infrequent, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(skips->Value() - skips0, 1u);
  EXPECT_EQ(result->candidates, 4u);
  EXPECT_TRUE(SameRows(result->patterns, expected->patterns));
  // The verify stage reports the recount's bitmap bytes: one word per
  // frequent item ({0}, {2}), the T and F masks, one scratch word.
  ASSERT_EQ(stages.stages().size(), 1u);
  EXPECT_EQ(stages.stages()[0].name, obs::kStageShardVerify);
  EXPECT_EQ(stages.stages()[0].items, 4u);
  EXPECT_EQ(stages.stages()[0].peak_bytes, 5u * sizeof(uint64_t));
}

// Seeded differential: the merge against a from-definition phase 2 that
// scans every covered row for every candidate.
struct RandomCase {
  std::vector<int> domains;
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

RandomCase MakeRandomCase(Rng& rng, size_t rows) {
  RandomCase c;
  const size_t attrs = 2 + rng.Below(4);
  for (size_t a = 0; a < attrs; ++a) {
    c.domains.push_back(static_cast<int>(2 + rng.Below(4)));
  }
  std::vector<std::vector<int>> cells(rows, std::vector<int>(attrs));
  for (auto& row : cells) {
    for (size_t a = 0; a < attrs; ++a) {
      // Skewed values so some items are frequent and some are not.
      const int d = c.domains[a];
      row[a] = rng.Bernoulli(0.6) ? 0 : static_cast<int>(rng.Below(d));
    }
  }
  c.dataset = MakeEncoded(cells, c.domains);
  c.outcomes.resize(rows);
  for (Outcome& o : c.outcomes) {
    const uint64_t u = rng.Below(3);
    o = u == 0 ? Outcome::kTrue : u == 1 ? Outcome::kFalse : Outcome::kBottom;
  }
  return c;
}

// A candidate drawn from one row of the shard (so it has support there)
// over a random attribute subset, or occasionally an arbitrary pair of
// items, possibly of the same attribute (support 0).
Itemset RandomCandidate(Rng& rng, const RandomCase& c,
                        const ShardRange& range) {
  const size_t attrs = c.dataset.num_attributes;
  if (rng.Bernoulli(0.1) || range.size() == 0) {
    const uint32_t items = c.dataset.catalog.num_items();
    uint32_t a = static_cast<uint32_t>(rng.Below(items));
    uint32_t b = static_cast<uint32_t>(rng.Below(items));
    if (a == b) return {a};
    return a < b ? Itemset{a, b} : Itemset{b, a};
  }
  const size_t row = range.begin + rng.Below(range.size());
  Itemset items;
  for (size_t a = 0; a < attrs; ++a) {
    if (rng.Bernoulli(0.5)) items.push_back(c.dataset.at(row, a));
  }
  if (items.empty()) items.push_back(c.dataset.at(row, rng.Below(attrs)));
  return items;  // item ids ascend with the attribute index
}

std::vector<MinedPattern> OracleMerge(
    const RandomCase& c, const std::vector<ShardRange>& plan,
    const std::vector<bool>& include_rows,
    const std::vector<ShardContribution>& contributions,
    const ShardMergeOptions& options) {
  std::set<Itemset> union_set;
  for (const ShardContribution& contribution : contributions) {
    for (const MinedPattern& p : contribution.patterns.ToPatterns()) {
      if (p.items.empty()) continue;
      if (options.max_length != 0 && p.items.size() > options.max_length) {
        continue;
      }
      union_set.insert(p.items);
    }
  }
  auto row_matches = [&](size_t row, const Itemset& items) {
    for (uint32_t id : items) {
      const size_t attr = c.dataset.catalog.item(id).attribute;
      if (c.dataset.at(row, attr) != id) return false;
    }
    return true;
  };
  auto count = [&](const Itemset& items) {
    OutcomeCounts tally;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!include_rows[i]) continue;
      for (size_t r = plan[i].begin; r < plan[i].end; ++r) {
        if (!row_matches(r, items)) continue;
        switch (c.outcomes[r]) {
          case Outcome::kTrue:
            ++tally.t;
            break;
          case Outcome::kFalse:
            ++tally.f;
            break;
          case Outcome::kBottom:
            ++tally.bot;
            break;
        }
      }
    }
    return tally;
  };
  size_t covered = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (include_rows[i]) covered += plan[i].size();
  }
  const uint64_t min_count = MinCount(options.min_support, covered);
  std::vector<MinedPattern> frequent;
  for (const Itemset& items : union_set) {
    const OutcomeCounts tally = count(items);
    if (tally.total() >= min_count) {
      frequent.push_back(MinedPattern{items, tally});
    }
  }
  // Canonical order, shortest first, so closure sees subsets first.
  std::stable_sort(frequent.begin(), frequent.end(),
                   [](const MinedPattern& a, const MinedPattern& b) {
                     if (a.items.size() != b.items.size()) {
                       return a.items.size() < b.items.size();
                     }
                     return a.items < b.items;
                   });
  std::set<Itemset> kept;
  std::vector<MinedPattern> out = {MinedPattern{Itemset{}, count({})}};
  for (MinedPattern& p : frequent) {
    bool closed = true;
    for (uint32_t id : p.items) {
      if (p.items.size() > 1 && kept.count(Without(p.items, id)) == 0) {
        closed = false;
      }
    }
    if (!closed) continue;
    kept.insert(p.items);
    out.push_back(std::move(p));
  }
  return out;
}

TEST(ShardMergeDifferentialTest, BitmapRecountMatchesRowScanOracle) {
  Rng rng(0x5E6D);
  int cases = 0;
  int with_dropped_middle = 0;
  size_t kept_multi_item = 0;  // guards against a vacuous oracle
  // n mod 64 in {0, 1, 63}, from below one word to several words.
  for (const size_t rows : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                            size_t{127}, size_t{128}, size_t{129},
                            size_t{191}, size_t{256}, size_t{321}}) {
    for (int trial = 0; trial < 6; ++trial) {
      const RandomCase c = MakeRandomCase(rng, rows);
      const size_t shards = 1 + rng.Below(8);
      const std::vector<ShardRange> plan = MakeShardPlan(rows, shards);
      std::vector<uint64_t> fingerprints(shards);
      std::vector<bool> include_rows(shards, true);
      for (size_t i = 0; i < shards; ++i) {
        fingerprints[i] = 1000 + i;
        if (rng.Bernoulli(0.25)) include_rows[i] = false;
      }
      // Every other case drops a middle shard, which is where the
      // covered-row renumbering has to close a hole.
      if (shards >= 3 && trial % 2 == 0) {
        include_rows[1 + rng.Below(shards - 2)] = false;
        ++with_dropped_middle;
      }
      bool any_covered = false;
      for (size_t i = 0; i < shards; ++i) {
        any_covered = any_covered || (include_rows[i] && plan[i].size() > 0);
      }
      if (!any_covered) include_rows[0] = true;
      // Contributions from every shard, excluded (stale) ones included.
      std::vector<ShardContribution> contributions;
      for (size_t i = 0; i < shards; ++i) {
        ShardContribution contribution{i, fingerprints[i], {}};
        const size_t n = rng.Below(25);
        for (size_t k = 0; k < n; ++k) {
          contribution.patterns.Append(RandomCandidate(rng, c, plan[i]),
                                       {});
        }
        contributions.push_back(std::move(contribution));
      }
      ShardMergeOptions options;
      options.min_support = 0.02 + 0.3 * rng.Uniform();
      options.max_length = rng.Below(4);  // 0 = unbounded
      options.num_threads = 1 + rng.Below(3);
      const std::vector<MinedPattern> want =
          OracleMerge(c, plan, include_rows, contributions, options);
      for (const fpm::KernelKind kernel :
           {fpm::KernelKind::kScalar, fpm::KernelKind::kSimd}) {
        options.kernel = kernel;
        SCOPED_TRACE("rows=" + std::to_string(rows) + " shards=" +
                     std::to_string(shards) + " trial=" +
                     std::to_string(trial) + " kernel=" +
                     fpm::ResolveKernel(kernel).name);
        auto got = MergeShardContributions(c.dataset, c.outcomes, plan,
                                           fingerprints, include_rows,
                                           contributions, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const std::vector<MinedPattern> got_rows = got->patterns.ToPatterns();
        ASSERT_EQ(got_rows.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got_rows[i].items, want[i].items) << "i=" << i;
          ASSERT_EQ(got_rows[i].counts.t, want[i].counts.t);
          ASSERT_EQ(got_rows[i].counts.f, want[i].counts.f);
          ASSERT_EQ(got_rows[i].counts.bot, want[i].counts.bot);
        }
      }
      for (const MinedPattern& p : want) {
        if (p.items.size() > 1) ++kept_multi_item;
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 60);
  EXPECT_GT(with_dropped_middle, 0);
  EXPECT_GT(kept_multi_item, 50u);
}

}  // namespace
}  // namespace shard
}  // namespace divexp
