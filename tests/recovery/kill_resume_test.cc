// Kill/resume differential harness: run explorations under random
// deterministic fault schedules until they die (injected throw /
// return-error in-process, or a real fork+abort for process death),
// resume from the last snapshot, and assert the final pattern table is
// bit-identical to an uninterrupted run — for all three miners, at
// several supports, at 1 and 8 threads.
//
// Schedule count per (miner, support, threads) cell comes from the
// DIVEXP_RECOVERY_SCHEDULES env var (default 15, so each miner sees
// 15 x 4 = 60 in-process schedules by default; CI's recovery-smoke job
// pins its own value).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "recovery/atomic_file.h"
#include "util/failpoint.h"
#include "recovery/mining_snapshot.h"
#include "testing/table_bytes.h"
#include "testing/test_data.h"
#include "util/random.h"

namespace divexp {
namespace recovery {
namespace {

using divexp::testing::MakeEncoded;
using divexp::testing::TableBytes;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_kill_resume_test/" + leaf;
  DIVEXP_CHECK_OK(EnsureDirectory(dir));
  return dir;
}

int SchedulesPerCell() {
  const char* env = std::getenv("DIVEXP_RECOVERY_SCHEDULES");
  if (env == nullptr) return 15;
  const int n = std::atoi(env);
  return n > 0 ? n : 15;
}

struct Workload {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

// A table rich enough that every miner needs many units (FP-growth
// headers, Eclat roots, Apriori levels) and several checkpoints land
// before a mid-run fault.
Workload MakeWorkload() {
  Rng rng(777);
  const std::vector<int> domains = {3, 4, 2, 3, 2, 4};
  std::vector<std::vector<int>> cells(
      220, std::vector<int>(domains.size()));
  std::vector<Outcome> outcomes(cells.size());
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t a = 0; a < domains.size(); ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domains[a]));
    }
    const double u = rng.Uniform();
    const double bias = cells[r][0] == 0 ? 0.6 : 0.3;
    outcomes[r] = u < bias         ? Outcome::kTrue
                  : u < bias + 0.3 ? Outcome::kFalse
                                   : Outcome::kBottom;
  }
  Workload w;
  w.dataset = MakeEncoded(cells, domains);
  w.outcomes = std::move(outcomes);
  return w;
}

ExplorerOptions BaseOptions(MinerKind miner, double support,
                            size_t threads,
                            fpm::KernelKind kernel = fpm::KernelKind::kAuto) {
  ExplorerOptions opts;
  opts.miner = miner;
  opts.min_support = support;
  opts.num_threads = threads;
  opts.kernel = kernel;
  return opts;
}

std::string ReferenceSerialization(const Workload& w,
                                   const ExplorerOptions& opts) {
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

// Failpoints a schedule may target, per miner. Mining-phase points die
// mid-frontier; io.snapshot.write dies inside the checkpoint writer;
// core.explore.divergence dies after mining with a full checkpoint.
std::vector<std::string> FaultTargets(MinerKind miner) {
  std::vector<std::string> targets = {"parallel.worker",
                                      "io.snapshot.write",
                                      "core.explore.divergence"};
  switch (miner) {
    case MinerKind::kFpGrowth:
      targets.push_back("fpm.fpgrowth.grow");
      break;
    case MinerKind::kApriori:
      targets.push_back("fpm.apriori.level");
      break;
    case MinerKind::kEclat:
      targets.push_back("fpm.eclat.grow");
      break;
  }
  return targets;
}

std::string RandomSchedule(Rng& rng, MinerKind miner) {
  const std::vector<std::string> targets = FaultTargets(miner);
  const std::string& name = targets[rng.Below(targets.size())];
  // Bias ordinals low: Apriori has only a handful of hits per run
  // (one per level), so uniform 1..24 would rarely fire there; the
  // high tail still probes late-run faults on the richer miners.
  const uint64_t ordinal =
      rng.Below(2) == 0 ? 1 + rng.Below(3) : 1 + rng.Below(24);
  const char* action = rng.Below(2) == 0 ? "throw" : "return-error";
  return name + "@" + std::to_string(ordinal) + ":" + action;
}

void RunCell(MinerKind miner, double support, size_t threads,
             const Workload& w, const std::string& reference,
             int schedules, uint64_t seed,
             fpm::KernelKind kernel = fpm::KernelKind::kAuto) {
  Rng rng(seed);
  int interrupted = 0;
  for (int round = 0; round < schedules; ++round) {
    const std::string dir =
        TempDir(std::string(MinerKindName(miner)) + "_s" +
                std::to_string(static_cast<int>(support * 1000)) + "_t" +
                std::to_string(threads) + "_k" +
                fpm::KernelKindName(kernel));
    std::remove((dir + "/mining.ckpt").c_str());

    const std::string schedule = RandomSchedule(rng, miner);
    ExplorerOptions opts = BaseOptions(miner, support, threads, kernel);
    opts.checkpoint_dir = dir;

    bool died = true;
    {
      ScopedFailPoints scope;
      ASSERT_TRUE(scope.Arm(schedule).ok()) << schedule;
      DivergenceExplorer explorer(opts);
      try {
        auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
        if (table.ok()) {
          died = false;
          // Fault never fired (ordinal past the end of the run): the
          // completed run must already match the reference.
          ASSERT_EQ(TableBytes(*table), reference)
              << "schedule " << schedule;
        }
      } catch (const std::exception&) {
        // A throw-action fault outside the mining phase (e.g. in the
        // divergence post-pass workers) escapes as an exception — a
        // harder death mode than a Status, handled identically.
      }
    }
    if (!died) continue;
    ++interrupted;

    // Whatever the snapshot captured must load cleanly...
    const bool had_checkpoint = FileExists(dir + "/mining.ckpt");
    if (had_checkpoint) {
      auto snapshot = LoadMiningState(dir + "/mining.ckpt");
      ASSERT_TRUE(snapshot.ok())
          << "schedule " << schedule << ": " << snapshot.status().ToString();
    }
    // ...and the resumed run must reproduce the reference exactly.
    opts.resume = true;
    DivergenceExplorer resumed(opts);
    auto table = resumed.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok())
        << "resume after " << schedule << ": " << table.status().ToString();
    ASSERT_EQ(TableBytes(*table), reference)
        << "schedule " << schedule;
    if (had_checkpoint) {
      EXPECT_TRUE(resumed.last_run_stats().resumed_from_checkpoint)
          << "schedule " << schedule;
    }
  }
  // The schedule space is tuned so a healthy fraction of rounds
  // actually exercises the interrupt/resume path.
  EXPECT_GT(interrupted, 0) << "no schedule interrupted the run";
}

class KillResumeTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(KillResumeTest, RandomFaultSchedulesResumeBitIdentically) {
  const MinerKind miner = GetParam();
  const Workload w = MakeWorkload();
  const int schedules = SchedulesPerCell();
  uint64_t seed = 1000 + static_cast<uint64_t>(miner);
  for (const double support : {0.3, 0.12}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      const std::string reference =
          ReferenceSerialization(w, BaseOptions(miner, support, threads));
      // The reference is thread-count independent (merge-order
      // invariant); resumed runs must land on the same bytes.
      RunCell(miner, support, threads, w, reference, schedules, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, KillResumeTest,
                         ::testing::Values(MinerKind::kFpGrowth,
                                           MinerKind::kApriori,
                                           MinerKind::kEclat),
                         [](const auto& info) {
                           return std::string(MinerKindName(info.param));
                         });

// The --kernel=simd cells: faulted SIMD-kernel runs must resume onto
// the *scalar* reference bytes — checkpoint envelopes (and therefore
// resumed tables) are kernel-independent. On hosts without a SIMD
// table kSimd degrades to scalar and the cell still runs, keeping the
// assertion meaningful everywhere.
TEST(KillResumeKernelTest, SimdCellsResumeBitIdenticalToScalarReference) {
  const Workload w = MakeWorkload();
  const int schedules = SchedulesPerCell();
  uint64_t seed = 9000;
  for (MinerKind miner :
       {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
    for (const size_t threads : {size_t{1}, size_t{8}}) {
      const std::string reference = ReferenceSerialization(
          w, BaseOptions(miner, 0.12, threads, fpm::KernelKind::kScalar));
      RunCell(miner, 0.12, threads, w, reference, schedules, ++seed,
              fpm::KernelKind::kSimd);
    }
  }
}

// Real process death: fork a child that aborts inside the snapshot
// writer (and at other seams), then resume in the parent. This is the
// regression test for the RunGuard/checkpoint edge case — an abort
// mid-snapshot-write must leave either no checkpoint or a loadable
// one, never a torn file.
TEST(KillResumeForkTest, AbortMidSnapshotWriteNeverCorruptsCheckpoint) {
  const Workload w = MakeWorkload();
  const ExplorerOptions base =
      BaseOptions(MinerKind::kFpGrowth, 0.12, 1);
  const std::string reference = ReferenceSerialization(w, base);

  const std::vector<std::string> schedules = {
      "io.atomic.mid_write@1:abort",    // first checkpoint write dies
      "io.atomic.mid_write@3:abort",    // a later write dies
      "io.atomic.before_rename@2:abort",
      "io.snapshot.write@4:abort",
      "fpm.fpgrowth.grow@6:abort",
  };
  for (const std::string& schedule : schedules) {
    const std::string dir = TempDir("fork");
    std::remove((dir + "/mining.ckpt").c_str());

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
  const Workload w = MakeWorkload();
  ExplorerOptions opts = BaseOptions(MinerKind::kFpGrowth, 0.12, 1);
  opts.limits.max_patterns = 40;
  opts.on_limit = LimitAction::kTruncate;
  const std::string dir = TempDir("guard");
  std::remove((dir + "/mining.ckpt").c_str());
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
  const Workload w = MakeWorkload();
  ExplorerOptions opts = BaseOptions(MinerKind::kEclat, 0.3, 1);
  const std::string dir = TempDir("stats");
  std::remove((dir + "/mining.ckpt").c_str());
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
