#include "fpm/fpgrowth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "testing/miner_tables.h"
#include "testing/test_data.h"
#include "util/failpoint.h"
#include "util/run_guard.h"

namespace divexp {
namespace {

using testing::MakeEncoded;
using testing::MakeMinerTable;
using testing::MinerTable;
using testing::OutcomesFromString;

std::map<Itemset, OutcomeCounts> ToMap(
    const std::vector<MinedPattern>& patterns) {
  std::map<Itemset, OutcomeCounts> out;
  for (const auto& p : patterns) {
    EXPECT_EQ(out.count(p.items), 0u) << "duplicate itemset";
    out[p.items] = p.counts;
  }
  return out;
}

TEST(FpGrowthTest, MinesTinyDatasetCompletely) {
  // Two binary attributes, four rows covering every combination.
  const EncodedDataset ds =
      MakeEncoded({{0, 0}, {0, 1}, {1, 0}, {1, 1}}, {2, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("TTFF"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 0.25;  // 1 row
  auto patterns = miner.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  const auto map = ToMap(*patterns);
  // 1 empty + 4 single + 4 pairs (same-attribute pairs are impossible).
  EXPECT_EQ(map.size(), 9u);
  EXPECT_EQ(map.at(Itemset{}), (OutcomeCounts{2, 2, 0}));
  // a0=v0 covers rows 0, 1 -> both T.
  EXPECT_EQ(map.at(Itemset{0}), (OutcomeCounts{2, 0, 0}));
  // a0=v1 covers rows 2, 3 -> both F.
  EXPECT_EQ(map.at(Itemset{1}), (OutcomeCounts{0, 2, 0}));
  // {a0=v0, a1=v1} covers row 1 only.
  EXPECT_EQ(map.at(Itemset{0, 3}), (OutcomeCounts{1, 0, 0}));
}

TEST(FpGrowthTest, SupportThresholdFilters) {
  // Row {1,1} appears once out of 5: below support 0.3.
  const EncodedDataset ds = MakeEncoded(
      {{0, 0}, {0, 0}, {0, 1}, {0, 1}, {1, 1}}, {2, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("TTTTT"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 0.3;  // min count 2
  auto patterns = miner.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  const auto map = ToMap(*patterns);
  EXPECT_EQ(map.count(Itemset{1}), 0u);     // a0=v1 support 1
  EXPECT_EQ(map.count(Itemset{0}), 1u);     // a0=v0 support 4
  EXPECT_EQ(map.count(Itemset{0, 2}), 1u);  // support 2
  EXPECT_EQ(map.count(Itemset{1, 3}), 0u);  // support 1
}

TEST(FpGrowthTest, BottomOutcomesCountedInSupport) {
  const EncodedDataset ds = MakeEncoded({{0}, {0}, {0}, {1}}, {2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("BBTF"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 0.5;  // needs 2 rows
  auto patterns = miner.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  const auto map = ToMap(*patterns);
  // a0=v0 has support 3 (2 bottoms + 1 T) and passes.
  ASSERT_EQ(map.count(Itemset{0}), 1u);
  EXPECT_EQ(map.at(Itemset{0}), (OutcomeCounts{1, 0, 2}));
  EXPECT_EQ(map.count(Itemset{1}), 0u);
}

TEST(FpGrowthTest, MaxLengthBoundsPatternSize) {
  const EncodedDataset ds =
      MakeEncoded({{0, 0, 0}, {0, 0, 0}, {1, 1, 1}}, {2, 2, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("TTF"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 0.3;
  opts.max_length = 2;
  auto patterns = miner.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  for (const auto& p : *patterns) {
    EXPECT_LE(p.items.size(), 2u);
  }
  // Length-2 patterns must still be present.
  bool has_pair = false;
  for (const auto& p : *patterns) has_pair |= p.items.size() == 2;
  EXPECT_TRUE(has_pair);
}

TEST(FpGrowthTest, EmptyDatabaseYieldsOnlyRoot) {
  const EncodedDataset ds = MakeEncoded({}, {2});
  auto db = TransactionDatabase::Create(ds, {});
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  auto patterns = miner.Mine(*db, MinerOptions{});
  ASSERT_TRUE(patterns.ok());
  ASSERT_EQ(patterns->size(), 1u);
  EXPECT_TRUE(patterns->front().items.empty());
}

TEST(FpGrowthTest, InvalidSupportRejected) {
  const EncodedDataset ds = MakeEncoded({{0}}, {1});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("T"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 0.0;
  EXPECT_FALSE(miner.Mine(*db, opts).ok());
  opts.min_support = 1.5;
  EXPECT_FALSE(miner.Mine(*db, opts).ok());
}

TEST(FpGrowthTest, PatternCountsSumConsistency) {
  // For every pattern, t+f+bot must equal its true cover size.
  const EncodedDataset ds = MakeEncoded(
      {{0, 1, 0}, {1, 1, 0}, {0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {0, 1, 0}},
      {2, 2, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("TFBTFB"));
  ASSERT_TRUE(db.ok());
  FpGrowthMiner miner;
  MinerOptions opts;
  opts.min_support = 1.0 / 6.0;
  auto patterns = miner.Mine(*db, opts);
  ASSERT_TRUE(patterns.ok());
  for (const auto& p : *patterns) {
    EXPECT_EQ(p.counts.total(), ds.Cover(p.items).size())
        << ItemsetDebugString(p.items);
  }
}

// FNV-1a over the patterns in emission order: items and tallies.
uint64_t EmissionDigest(const std::vector<MinedPattern>& patterns) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const MinedPattern& p : patterns) {
    mix(p.items.size());
    for (uint32_t id : p.items) mix(id);
    mix(p.counts.t);
    mix(p.counts.f);
    mix(p.counts.bot);
  }
  return h;
}

// Mine's unsorted output order is a contract: budget truncation and the
// checkpoint units cut it, and fault schedules count its emissions. The
// digests were recorded from the pointer-linked FP-tree implementation
// that preceded the array-backed one.
TEST(FpGrowthTest, EmissionOrderMatchesParent) {
  const std::map<std::string, uint64_t> expected = {
      {"uniform_small_arity", 0xcd7a693b491cfb01ull},
      {"nulls_mixed_arity", 0x653581909b426853ull},
      {"heavy_skew", 0x8dbc93467998f54cull},
      {"wide_arity_sparse", 0x7c150dba2b6cd98full},
      {"duplicated_column", 0xb795e1758e0e9aa3ull},
      {"function_of_column", 0x40159949b9dbad2cull},
      {"identical_rows", 0x635f9f1c4e83f0f7ull},
  };
  for (const testing::MinerTableSpec& spec : testing::MinerTableSpecs()) {
    const MinerTable t = MakeMinerTable(spec);
    auto db = TransactionDatabase::Create(t.dataset, t.outcomes);
    ASSERT_TRUE(db.ok());
    for (size_t threads : {size_t{1}, size_t{2}}) {
      uint64_t combined = 1469598103934665603ull;
      for (double support : {0.02, 0.08, 0.25}) {
        for (size_t max_length : {0, 1, 2, 3}) {
          MinerOptions opts;
          opts.min_support = support;
          opts.max_length = max_length;
          opts.num_threads = threads;
          auto patterns = FpGrowthMiner().Mine(*db, opts);
          ASSERT_TRUE(patterns.ok());
          combined ^= EmissionDigest(*patterns);
          combined *= 1099511628211ull;
        }
      }
      EXPECT_EQ(combined, expected.at(spec.label))
          << spec.label << " threads=" << threads;
    }
  }
}

TEST(FpGrowthTest, UnguardedRunReportsGrowPeakBytes) {
  const MinerTable t = MakeMinerTable(testing::MinerTableSpecs()[1]);
  auto db = TransactionDatabase::Create(t.dataset, t.outcomes);
  ASSERT_TRUE(db.ok());
  for (size_t threads : {size_t{1}, size_t{2}}) {
    obs::StageCollector stages;
    MinerOptions opts;
    opts.min_support = 0.05;
    opts.num_threads = threads;
    opts.stages = &stages;
    ASSERT_TRUE(FpGrowthMiner().Mine(*db, opts).ok());
    bool found = false;
    for (const obs::StageStats& s : stages.stages()) {
      if (s.name != obs::kStageMineGrow) continue;
      found = true;
      EXPECT_GT(s.peak_bytes, 0u) << "threads=" << threads;
    }
    EXPECT_TRUE(found) << "threads=" << threads;
  }
}

// Lower bound on the top-level tree's node bytes: every distinct set of
// frequent items a row holds ends its insertion path at its own node,
// and a node holds at least its (T, F, ⊥) tally and a parent link.
uint64_t TopLevelNodeBytesLowerBound(const EncodedDataset& ds,
                                     uint64_t min_count) {
  std::map<uint32_t, uint64_t> support;
  for (uint32_t id : ds.cells) ++support[id];
  std::set<Itemset> row_sets;
  for (size_t r = 0; r < ds.num_rows; ++r) {
    Itemset items;
    for (size_t a = 0; a < ds.num_attributes; ++a) {
      const uint32_t id = ds.cells[r * ds.num_attributes + a];
      if (support[id] >= min_count) items.push_back(id);
    }
    std::sort(items.begin(), items.end());
    if (!items.empty()) row_sets.insert(items);
  }
  return row_sets.size() * (sizeof(OutcomeCounts) + sizeof(uint32_t));
}

TEST(FpGrowthTest, TreeBytesAreChargedAndMemoryLimitStopsCleanly) {
  const MinerTable t = MakeMinerTable(testing::MinerTableSpecs()[1]);
  auto db = TransactionDatabase::Create(t.dataset, t.outcomes);
  ASSERT_TRUE(db.ok());
  MinerOptions opts;
  opts.min_support = 0.02;
  const uint64_t node_bytes = TopLevelNodeBytesLowerBound(
      t.dataset, MinCount(opts.min_support, t.dataset.num_rows));
  ASSERT_GT(node_bytes, 0u);

  // fpm.kernel.arena.bytes reports the top-level tree's reserved node
  // storage, and the guard is charged at least that much.
  obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "fpm.kernel.arena.bytes");
  const uint64_t before = counter->Value();
  RunGuard unlimited_guard{RunLimits{}};
  opts.guard = &unlimited_guard;
  auto unlimited = FpGrowthMiner().Mine(*db, opts);
  ASSERT_TRUE(unlimited.ok());
  const uint64_t reserved = counter->Value() - before;
  EXPECT_GE(reserved, node_bytes);
  EXPECT_GE(unlimited_guard.peak_memory_bytes(), node_bytes);
  // Tree and scratch bytes are released; only the emitted patterns'
  // charges (MineControl::Emit) stay.
  uint64_t pattern_bytes = 0;
  for (size_t i = 1; i < unlimited->size(); ++i) {
    pattern_bytes += PatternBuffer::RowBytes((*unlimited)[i].items.size());
  }
  EXPECT_EQ(unlimited_guard.memory_bytes(), pattern_bytes);

  // A guard left a few KiB above the tree stops the grow loop on a
  // memory breach, with a prefix of the unlimited emission order.
  RunLimits limits;
  limits.max_memory_mb = 1;
  RunGuard guard{limits};
  ASSERT_TRUE(guard.AddMemory((uint64_t{1} << 20) - reserved - 8 * 1024));
  opts.guard = &guard;
  auto limited = FpGrowthMiner().Mine(*db, opts);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(guard.breach(), LimitBreach::kMemoryBudget);
  ASSERT_GT(limited->size(), 1u) << "the tree should fit; the grow should not";
  ASSERT_LT(limited->size(), unlimited->size());
  for (size_t i = 0; i < limited->size(); ++i) {
    EXPECT_EQ((*limited)[i].items, (*unlimited)[i].items) << i;
    EXPECT_EQ((*limited)[i].counts, (*unlimited)[i].counts) << i;
  }
}

// The top-level tree is one path a(5) -> b(3) -> c(2), and b's item id
// is below a's, so in c's conditional tree the equal supports of a and
// b rank them by ascending id, not by their top-level rank. Expected
// order: ranks least frequent first, each rank's extensions before the
// next rank.
TEST(FpGrowthTest, SinglePathEmitsInRecursionOrder) {
  // Columns: c (ids 0..3), b (ids 4..6), a (ids 7..8).
  const EncodedDataset ds = MakeEncoded(
      {{1, 1, 1}, {1, 1, 1}, {2, 1, 1}, {3, 2, 1}, {0, 0, 1}}, {4, 3, 2});
  auto db = TransactionDatabase::Create(ds, OutcomesFromString("TFTFB"));
  ASSERT_TRUE(db.ok());
  const uint32_t c = 1, b = 5, a = 8;
  const std::vector<MinedPattern> expected = {
      {Itemset{}, {2, 2, 1}},        {Itemset{c}, {1, 1, 0}},
      {Itemset{c, a}, {1, 1, 0}},    {Itemset{c, b, a}, {1, 1, 0}},
      {Itemset{c, b}, {1, 1, 0}},    {Itemset{b}, {2, 1, 0}},
      {Itemset{b, a}, {2, 1, 0}},    {Itemset{a}, {2, 2, 1}},
  };
  for (size_t threads : {size_t{1}, size_t{2}}) {
    MinerOptions opts;
    opts.min_support = 0.4;  // 2 of 5 rows
    opts.num_threads = threads;
    auto patterns = FpGrowthMiner().Mine(*db, opts);
    ASSERT_TRUE(patterns.ok());
    ASSERT_EQ(patterns->size(), expected.size()) << "threads=" << threads;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*patterns)[i].items, expected[i].items)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ((*patterns)[i].counts, expected[i].counts)
          << "threads=" << threads << " i=" << i;
    }
  }
}

// Fault schedules keyed on fpm.fpgrowth.grow@N count emitted non-empty
// patterns, on branching trees and single paths alike: the N-th hit
// exists and the (N+1)-th does not.
TEST(FpGrowthTest, GrowFailpointFiresOncePerEmittedPattern) {
  FailPointRegistry& reg = FailPointRegistry::Default();
  for (const char* label : {"nulls_mixed_arity", "identical_rows"}) {
    const std::vector<testing::MinerTableSpec> specs =
        testing::MinerTableSpecs();
    const auto spec =
        std::find_if(specs.begin(), specs.end(),
                     [&](const auto& s) { return s.label == label; });
    ASSERT_NE(spec, specs.end()) << label;
    const MinerTable t = MakeMinerTable(*spec);
    auto db = TransactionDatabase::Create(t.dataset, t.outcomes);
    ASSERT_TRUE(db.ok());
    for (size_t threads : {size_t{1}, size_t{2}}) {
      MinerOptions opts;
      opts.min_support = 0.08;
      opts.num_threads = threads;
      auto unarmed = FpGrowthMiner().Mine(*db, opts);
      ASSERT_TRUE(unarmed.ok());
      const uint64_t emitted = unarmed->size() - 1;
      ASSERT_GT(emitted, 0u);
      for (uint64_t ordinal : {emitted, emitted + 1}) {
        ScopedFailPoints scope;
        ASSERT_TRUE(reg.Arm({FailPointSpec{"fpm.fpgrowth.grow", ordinal,
                                           FailPointAction::kDelay, 0}})
                        .ok());
        const uint64_t before = reg.faults_injected();
        auto armed = FpGrowthMiner().Mine(*db, opts);
        ASSERT_TRUE(armed.ok());
        EXPECT_EQ(armed->size(), unarmed->size());
        EXPECT_EQ(reg.faults_injected() - before, ordinal == emitted ? 1u : 0u)
            << label << " threads=" << threads << " ordinal=" << ordinal;
      }
    }
  }
}

}  // namespace
}  // namespace divexp
