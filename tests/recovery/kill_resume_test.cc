// Crash-recovery edge cases around the checkpoint writer: a real
// process death inside the snapshot writer never leaves a torn
// checkpoint, a RunGuard breach forces a final snapshot and survives a
// failing writer, and the run stats report recovery activity. The
// bit-identity of killed-then-resumed runs for every miner, kernel,
// thread count, support and length cap is checked by the differential
// matrix (tests/matrix/matrix_test.cc).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "recovery/mining_snapshot.h"
#include "testing/modes.h"
#include "testing/table_bytes.h"
#include "util/failpoint.h"

namespace divexp {
namespace recovery {
namespace {

using divexp::testing::MinerTable;
using divexp::testing::TableBytes;

// A table rich enough that every miner needs many units (FP-growth
// headers, Eclat roots, Apriori levels) and several checkpoints land
// before a mid-run fault.
MinerTable Workload() {
  return divexp::testing::MakeMinerTable(
      divexp::testing::MinerTableSpecs()[1]);
}

ExplorerOptions BaseOptions(MinerKind miner, double support) {
  ExplorerOptions opts;
  opts.miner = miner;
  opts.min_support = support;
  return opts;
}

/// A scratch directory with no checkpoint left by an earlier run.
std::string FreshCheckpointDir(const std::string& leaf) {
  const std::string dir = divexp::testing::ScratchDir("recovery/" + leaf);
  std::remove((dir + "/mining.ckpt").c_str());
  return dir;
}

std::string ReferenceSerialization(const MinerTable& w,
                                   const ExplorerOptions& opts) {
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

// Real process death: fork a child that aborts inside the snapshot
// writer (and at other seams), then resume in the parent. This is the
// regression test for the RunGuard/checkpoint edge case — an abort
// mid-snapshot-write must leave either no checkpoint or a loadable
// one, never a torn file.
TEST(KillResumeForkTest, AbortMidSnapshotWriteNeverCorruptsCheckpoint) {
  const MinerTable w = Workload();
  const ExplorerOptions base =
      BaseOptions(MinerKind::kFpGrowth, 0.12);
  const std::string reference = ReferenceSerialization(w, base);

  const std::vector<std::string> schedules = {
      "io.atomic.mid_write@1:abort",    // first checkpoint write dies
      "io.atomic.mid_write@3:abort",    // a later write dies
      "io.atomic.before_rename@2:abort",
      "io.snapshot.write@4:abort",
      "fpm.fpgrowth.grow@6:abort",
  };
  for (const std::string& schedule : schedules) {
    const std::string dir = FreshCheckpointDir("fork");

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: arm the schedule and mine until the abort kills us.
      // _exit (not exit) on survival: no gtest teardown in the child.
      if (!FailPointRegistry::Default().Arm(schedule).ok()) _exit(3);
      ExplorerOptions opts = base;
      opts.checkpoint_dir = dir;
      DivergenceExplorer explorer(opts);
      auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
      _exit(table.ok() ? 0 : 2);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    // The checkpoint, if present, must be loadable — an abort while
    // the writer was mid-file may only ever leave the previous
    // complete snapshot (write-temp/fsync/rename).
    if (FileExists(dir + "/mining.ckpt")) {
      auto snapshot = LoadMiningState(dir + "/mining.ckpt");
      ASSERT_TRUE(snapshot.ok())
          << schedule << ": " << snapshot.status().ToString();
    }

    // Resume (or remine from scratch) and compare bit-exactly.
    ExplorerOptions opts = base;
    opts.checkpoint_dir = dir;
    opts.resume = true;
    DivergenceExplorer resumed(opts);
    auto table = resumed.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << schedule;
    EXPECT_EQ(TableBytes(*table), reference) << schedule;
  }
}

// RunGuard breach + checkpointing: with on_limit=truncate the breach
// forces a final snapshot (Flush on the truncation path), and a write
// failure injected into that snapshot still returns the truncated
// table with no corrupt file left behind.
TEST(KillResumeGuardTest, BreachForcesSnapshotAndSurvivesWriteFault) {
  const MinerTable w = Workload();
  ExplorerOptions opts = BaseOptions(MinerKind::kFpGrowth, 0.12);
  opts.limits.max_patterns = 40;
  opts.on_limit = LimitAction::kTruncate;
  const std::string dir = FreshCheckpointDir("guard");
  opts.checkpoint_dir = dir;
  // Long cadence: without the breach override no snapshot would be due
  // after the first write, so a second file proves the forced flush.
  opts.checkpoint_every_ms = 60 * 60 * 1000;

  {
    DivergenceExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(explorer.last_run_stats().truncated);
    if (FileExists(dir + "/mining.ckpt")) {
      EXPECT_TRUE(LoadMiningState(dir + "/mining.ckpt").ok());
    }
  }

  // Same run, but every snapshot write fails: the truncated table must
  // still come back and no torn checkpoint may appear.
  std::remove((dir + "/mining.ckpt").c_str());
  {
    ScopedFailPoints scope(
        "io.snapshot.write@1:return-error,io.snapshot.write@2:return-error,"
        "io.snapshot.write@3:return-error,io.snapshot.write@4:return-error");
    DivergenceExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(explorer.last_run_stats().truncated);
  }
  if (FileExists(dir + "/mining.ckpt")) {
    EXPECT_TRUE(LoadMiningState(dir + "/mining.ckpt").ok());
  }
}

// Stats plumbing: checkpoints_written / checkpoint_bytes /
// faults_injected surface through ExplorerRunStats.
TEST(KillResumeStatsTest, RunStatsReportRecoveryActivity) {
  const MinerTable w = Workload();
  ExplorerOptions opts = BaseOptions(MinerKind::kEclat, 0.3);
  const std::string dir = FreshCheckpointDir("stats");
  opts.checkpoint_dir = dir;

  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok());
  const ExplorerRunStats& stats = explorer.last_run_stats();
  EXPECT_FALSE(stats.resumed_from_checkpoint);
  EXPECT_GT(stats.checkpoints_written, 0u);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);

  // A delay fault is benign but must be counted.
  {
    ScopedFailPoints scope("fpm.eclat.grow@1:delay-1");
    DivergenceExplorer delayed(opts);
    auto t2 = delayed.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(t2.ok());
    EXPECT_EQ(delayed.last_run_stats().faults_injected, 1u);
  }
}

}  // namespace
}  // namespace recovery
}  // namespace divexp
