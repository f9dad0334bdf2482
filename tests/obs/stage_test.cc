// Unit tests for per-stage accounting: StageStats merging, the
// collector's merge-by-name / first-seen-order contract, the RAII
// StageTimer, and the stderr table renderer.
#include <gtest/gtest.h>

#include <string>

#include "obs/stage.h"

namespace divexp {
namespace obs {
namespace {

StageStats Make(const std::string& name, double wall_ms, uint64_t items,
                uint64_t peak_bytes, uint64_t guard_checks) {
  StageStats s;
  s.name = name;
  s.wall_ms = wall_ms;
  s.items = items;
  s.peak_bytes = peak_bytes;
  s.guard_checks = guard_checks;
  s.calls = 1;
  return s;
}

TEST(StageStatsTest, MergeSumsAndKeepsPeak) {
  StageStats a = Make("mine.grow", 2.0, 100, 4096, 7);
  const StageStats b = Make("mine.grow", 3.0, 50, 1024, 3);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.wall_ms, 5.0);
  EXPECT_EQ(a.items, 150u);
  EXPECT_EQ(a.peak_bytes, 4096u);  // max, not sum
  EXPECT_EQ(a.guard_checks, 10u);
  EXPECT_EQ(a.calls, 2u);
}

TEST(StageCollectorTest, MergesByNamePreservingFirstSeenOrder) {
  StageCollector c;
  c.Record(Make("load.csv", 1.0, 10, 0, 0));
  c.Record(Make("mine.grow", 2.0, 20, 100, 1));
  c.Record(Make("load.csv", 4.0, 5, 0, 0));
  ASSERT_EQ(c.stages().size(), 2u);
  EXPECT_EQ(c.stages()[0].name, "load.csv");
  EXPECT_EQ(c.stages()[1].name, "mine.grow");
  EXPECT_DOUBLE_EQ(c.stages()[0].wall_ms, 5.0);
  EXPECT_EQ(c.stages()[0].calls, 2u);
  EXPECT_DOUBLE_EQ(c.TotalWallMs(), 7.0);
}

TEST(StageCollectorTest, MergeFromAnotherRun) {
  StageCollector run;
  run.Record(Make("load.csv", 1.0, 10, 0, 0));
  StageCollector explorer;
  explorer.Record(Make("mine.build", 2.0, 10, 50, 0));
  explorer.Record(Make("mine.grow", 3.0, 8, 70, 2));
  run.MergeFrom(explorer.stages());
  ASSERT_EQ(run.stages().size(), 3u);
  EXPECT_EQ(run.stages()[2].name, "mine.grow");
  run.Reset();
  EXPECT_TRUE(run.empty());
}

TEST(StageTimerTest, RecordsOnDestruction) {
  StageCollector c;
  {
    StageTimer t(&c, kStageMineBuild);
    t.AddItems(42);
    t.SetPeakBytes(100);
    t.SetPeakBytes(60);  // lower: keeps the peak
    t.AddGuardChecks(5);
  }
  ASSERT_EQ(c.stages().size(), 1u);
  const StageStats& s = c.stages()[0];
  EXPECT_EQ(s.name, kStageMineBuild);
  EXPECT_EQ(s.items, 42u);
  EXPECT_EQ(s.peak_bytes, 100u);
  EXPECT_EQ(s.guard_checks, 5u);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_GE(s.wall_ms, 0.0);
}

TEST(StageTimerTest, FinishIsIdempotent) {
  StageCollector c;
  {
    StageTimer t(&c, kStageMineGrow);
    t.AddItems(1);
    t.Finish();
    t.Finish();          // no double record
    t.AddItems(999);     // after Finish: dropped
  }                      // destructor: no double record either
  ASSERT_EQ(c.stages().size(), 1u);
  EXPECT_EQ(c.stages()[0].calls, 1u);
  EXPECT_EQ(c.stages()[0].items, 1u);
}

TEST(StageTimerTest, NullCollectorIsSafe) {
  StageTimer t(nullptr, kStageDivergence);
  t.AddItems(3);
  t.Finish();  // must not crash
}

TEST(FormatStageTableTest, ContainsEveryStageRow) {
  StageCollector c;
  c.Record(Make(kStageCsvLoad, 1.25, 1000, 2048, 0));
  c.Record(Make(kStageMineGrow, 10.5, 240, 1 << 20, 512));
  const std::string table = FormatStageTable(c.stages());
  EXPECT_NE(table.find(kStageCsvLoad), std::string::npos);
  EXPECT_NE(table.find(kStageMineGrow), std::string::npos);
  EXPECT_NE(table.find("1000"), std::string::npos);
}

// The sub-intervals (explore.order and explore.post_index inside
// explore.divergence, shard.verify inside shard.merge) get rows but
// are not added to the total a second time.
TEST(FormatStageTableTest, TotalLeavesOutSubIntervals) {
  StageCollector c;
  c.Record(Make(kStageCsvLoad, 1.0, 0, 0, 0));
  c.Record(Make(kStageDivergence, 10.0, 0, 0, 0));
  c.Record(Make(kStageOrder, 3.0, 0, 0, 0));
  c.Record(Make(kStagePostIndex, 4.0, 0, 0, 0));
  c.Record(Make(kStageShardMerge, 20.0, 0, 0, 0));
  c.Record(Make(kStageShardVerify, 15.0, 0, 0, 0));
  EXPECT_DOUBLE_EQ(c.TotalWallMs(), 31.0);
  const std::string table = FormatStageTable(c.stages());
  EXPECT_NE(table.find(kStagePostIndex), std::string::npos);
  EXPECT_NE(table.find(kStageShardVerify), std::string::npos);
  const size_t total = table.find("total");
  ASSERT_NE(total, std::string::npos);
  EXPECT_NE(table.find("31.000", total), std::string::npos) << table;
}

}  // namespace
}  // namespace obs
}  // namespace divexp
