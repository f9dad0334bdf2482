// Process-isolation differential harness: the same workload mined
// monolithically, thread-sharded, and process-sharded (fork/exec'd
// `shard-worker` children supervised by the coordinator) must
// serialize bit-identically — including runs where workers are
// SIGKILLed mid-mine, die of SIGSEGV, or stall their heartbeat until
// the coordinator's deadline kills them. Also proves the supervision
// invariants: no zombies (spawn/reap accounting balances after every
// run) and a SIGKILLed worker's successor resumes from the shard
// checkpoint the dead worker left behind.
//
// This binary is its own worker executable: the coordinator re-execs
// it with the hidden `shard-worker` verb, dispatched in main() before
// gtest ever parses argv. Schedule count per cell comes from the
// DIVEXP_SHARD_SCHEDULES env var (default 3; CI's shard-chaos-smoke
// job pins a larger value).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "obs/metrics.h"
#include "recovery/atomic_file.h"
#include "shard/shard.h"
#include "shard/worker/coordinator.h"
#include "shard/worker/worker.h"
#include "testing/table_bytes.h"
#include "testing/test_data.h"
#include "util/random.h"
#include "util/subprocess.h"

namespace divexp {
namespace shard {
namespace {

using divexp::testing::MakeEncoded;
using divexp::testing::TableBytes;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_shard_process_test/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

int SchedulesPerCell() {
  const char* env = std::getenv("DIVEXP_SHARD_SCHEDULES");
  if (env == nullptr) return 3;
  const int n = std::atoi(env);
  return n > 0 ? n : 3;
}

uint64_t HeartbeatTimeouts() {
  return obs::MetricsRegistry::Default()
      .GetCounter("shard.proc.heartbeat_timeouts")
      ->Value();
}

/// The zombie invariant: whenever no attempt is in flight, every child
/// ever spawned has been reaped exactly once.
void ExpectNoZombies() {
  EXPECT_EQ(SubprocessSpawnCount(), SubprocessReapCount());
}

struct Workload {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

Workload MakeWorkload() {
  Rng rng(31337);
  const std::vector<int> domains = {3, 4, 2, 3};
  std::vector<std::vector<int>> cells(160,
                                      std::vector<int>(domains.size()));
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

std::string MinerSeam(MinerKind miner) {
  switch (miner) {
    case MinerKind::kFpGrowth:
      return "fpm.fpgrowth.grow";
    case MinerKind::kApriori:
      return "fpm.apriori.level";
    case MinerKind::kEclat:
      return "fpm.eclat.grow";
  }
  return "fpm.fpgrowth.grow";
}

std::string MonolithicReference(const Workload& w, MinerKind miner,
                                double support) {
  ExplorerOptions opts;
  opts.miner = miner;
  opts.min_support = support;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

/// Process-isolated ShardedExplorerOptions with sane test supervision
/// parameters; callers override chaos / checkpoint fields per test.
ShardedExplorerOptions ProcessOpts(
    MinerKind miner, double support, size_t shards,
    const std::string& scratch,
    worker::ProcessIsolationOptions* popts_out = nullptr) {
  worker::ProcessIsolationOptions popts;
  popts.scratch_dir = scratch;
  popts.heartbeat_interval_ms = 25;
  // Generous by default: sanitizer-heavy CI machines must never trip
  // the deadline on a healthy worker. The stall test tightens it.
  popts.heartbeat_timeout_ms = 30000;
  if (popts_out != nullptr) popts = *popts_out;

  ShardedExplorerOptions opts;
  opts.base.miner = miner;
  opts.base.min_support = support;
  opts.num_shards = shards;
  opts.shard_parallelism = shards > 1 ? 2 : 1;
  opts.retry.max_retries = 3;
  opts.sleep_ms = [](uint64_t) {};
  opts.isolation = ShardIsolation::kProcess;
  opts.attempt_runner = worker::MakeProcessAttemptRunner(popts);
  return opts;
}

/// One random process-chaos entry: real death (SIGKILL / SIGSEGV) at a
/// deterministic ordinal on one of the seams a worker crosses. Under
/// ASan a raised SIGSEGV may surface as a nonzero exit instead of the
/// signal — both classify as a retryable shard failure, so schedules
/// stay valid either way.
std::string RandomChaosSchedule(Rng& rng, MinerKind miner) {
  const std::vector<std::string> targets = {"shard.unit.mine",
                                            MinerSeam(miner)};
  const std::string& name = targets[rng.Below(targets.size())];
  const uint64_t ordinal =
      rng.Below(2) == 0 ? 1 + rng.Below(3) : 1 + rng.Below(8);
  const char* action = rng.Below(3) == 0 ? "segv" : "kill";
  return name + "@" + std::to_string(ordinal) + ":" + action;
}

class ShardProcessTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(ShardProcessTest, CleanRunsMatchMonolithicBytes) {
  const MinerKind miner = GetParam();
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w, miner, 0.05);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir =
        TempDir(std::string("clean_") + MinerKindName(miner) + "_k" +
                std::to_string(shards));
    ShardedExplorerOptions opts =
        ProcessOpts(miner, 0.05, shards, dir + "/scratch");
    ShardedExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(TableBytes(*table), reference);
    EXPECT_EQ(explorer.last_run_stats().shard_isolation, "process");
    EXPECT_EQ(explorer.last_run_stats().retries_total, 0u);
    ExpectNoZombies();
  }
}

TEST_P(ShardProcessTest, KilledAndSegvedWorkersStayBitIdentical) {
  const MinerKind miner = GetParam();
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w, miner, 0.05);
  const int schedules = SchedulesPerCell();
  Rng rng(4400 + static_cast<uint64_t>(miner));
  int recovered = 0;
  for (int round = 0; round < schedules; ++round) {
    const std::string schedule = RandomChaosSchedule(rng, miner);
    SCOPED_TRACE("schedule " + schedule);
    const std::string dir =
        TempDir(std::string("chaos_") + MinerKindName(miner) + "_r" +
                std::to_string(round));

    worker::ProcessIsolationOptions popts;
    popts.scratch_dir = dir + "/scratch";
    popts.heartbeat_interval_ms = 25;
    popts.heartbeat_timeout_ms = 30000;
    // Chaos rides the spec, not the parent registry: each worker
    // starts with fresh hit counters, so arming only attempt 0 makes
    // every first attempt die (where the ordinal fires at all) and
    // every retry run clean.
    popts.failpoint_schedule = [schedule](size_t, size_t attempt) {
      return attempt == 0 ? schedule : std::string();
    };

    ShardedExplorerOptions opts =
        ProcessOpts(miner, 0.05, 4, popts.scratch_dir, &popts);
    ShardedExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_EQ(TableBytes(*table), reference);
    if (explorer.last_run_stats().retries_total > 0) ++recovered;
    ExpectNoZombies();
  }
  EXPECT_GT(recovered, 0) << "no schedule killed a worker";
}

TEST_P(ShardProcessTest, SigkilledWorkerResumesFromShardCheckpoint) {
  const MinerKind miner = GetParam();
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w, miner, 0.05);
  const std::string dir =
      TempDir(std::string("resume_") + MinerKindName(miner));

  worker::ProcessIsolationOptions popts;
  popts.scratch_dir = dir + "/scratch";
  popts.heartbeat_interval_ms = 25;
  popts.heartbeat_timeout_ms = 30000;
  // SIGKILL at the second snapshot write: no destructors, no sanitizer
  // exit paths — the sharpest possible death. checkpoint_every_ms=0
  // snapshots after every completed unit, so by the time the second
  // write starts, the first checkpoint has already landed (atomic
  // rename) and the dead worker leaves a resumable shard checkpoint
  // behind. The snapshot seam (unlike the miner seams, whose hit
  // counts are recursion-depth-dependent) guarantees this ordering
  // for every miner.
  const std::string schedule = "io.snapshot.write@2:kill";
  popts.failpoint_schedule = [schedule](size_t, size_t attempt) {
    return attempt == 0 ? schedule : std::string();
  };

  ShardedExplorerOptions opts =
      ProcessOpts(miner, 0.05, 2, popts.scratch_dir, &popts);
  opts.base.checkpoint_dir = dir + "/ckpt";
  opts.base.checkpoint_every_ms = 0;
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  const ExplorerRunStats& stats = explorer.last_run_stats();
  EXPECT_GT(stats.retries_total, 0u);
  EXPECT_GT(stats.checkpoints_written, 0u);
  // The retried attempt loaded the dead worker's snapshot — resume
  // provenance crossed the process boundary via the result frame.
  EXPECT_TRUE(stats.resumed_from_checkpoint);
  ExpectNoZombies();
}

INSTANTIATE_TEST_SUITE_P(AllMiners, ShardProcessTest,
                         ::testing::Values(MinerKind::kFpGrowth,
                                           MinerKind::kApriori,
                                           MinerKind::kEclat),
                         [](const auto& info) {
                           return std::string(MinerKindName(info.param));
                         });

TEST(ShardProcessSupervisionTest, StalledHeartbeatIsKilledAndRetried) {
  const Workload w = MakeWorkload();
  const std::string reference =
      MonolithicReference(w, MinerKind::kFpGrowth, 0.05);
  const std::string dir = TempDir("stall");

  worker::ProcessIsolationOptions popts;
  popts.scratch_dir = dir + "/scratch";
  popts.heartbeat_interval_ms = 25;
  popts.heartbeat_timeout_ms = 400;
  // Two stalls at once: the heartbeat thread sleeps far past the
  // deadline AND the mining thread sleeps too, so the worker is fully
  // silent — alive but wedged, exactly what heartbeat supervision
  // exists to catch. The coordinator must SIGKILL it at ~400ms rather
  // than wait out either sleep.
  const std::string schedule =
      "shard.worker.heartbeat@1:delay-10000,shard.unit.mine@1:delay-10000";
  popts.failpoint_schedule = [schedule](size_t shard, size_t attempt) {
    return shard == 0 && attempt == 0 ? schedule : std::string();
  };

  const uint64_t timeouts_before = HeartbeatTimeouts();
  ShardedExplorerOptions opts =
      ProcessOpts(MinerKind::kFpGrowth, 0.05, 2, popts.scratch_dir, &popts);
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  EXPECT_GT(explorer.last_run_stats().retries_total, 0u);
  EXPECT_GT(HeartbeatTimeouts(), timeouts_before);
  ExpectNoZombies();
}

TEST(ShardProcessSupervisionTest, ExhaustedShardDegradesUnderDropPolicy) {
  const Workload w = MakeWorkload();
  const size_t kShards = 4;
  const std::vector<ShardRange> plan =
      MakeShardPlan(w.dataset.num_rows, kShards);

  // Monolithic reference over the rows that survive dropping shard 0.
  Rng rebuild(31337);
  const std::vector<int> domains = {3, 4, 2, 3};
  std::vector<std::vector<int>> cells(w.dataset.num_rows,
                                      std::vector<int>(domains.size()));
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t a = 0; a < domains.size(); ++a) {
      cells[r][a] = static_cast<int>(
          w.dataset.at(r, a) - w.dataset.catalog.first_item(
                                   static_cast<uint32_t>(a)));
    }
  }
  Workload survivors;
  survivors.dataset = MakeEncoded(
      std::vector<std::vector<int>>(cells.begin() + plan[0].end,
                                    cells.end()),
      domains);
  survivors.outcomes.assign(w.outcomes.begin() + plan[0].end,
                            w.outcomes.end());
  const std::string reference =
      MonolithicReference(survivors, MinerKind::kFpGrowth, 0.05);

  const std::string dir = TempDir("drop");
  worker::ProcessIsolationOptions popts;
  popts.scratch_dir = dir + "/scratch";
  popts.heartbeat_interval_ms = 25;
  popts.heartbeat_timeout_ms = 30000;
  // Shard 0 dies on every attempt; its retry budget exhausts and the
  // drop policy excises its rows instead of failing the run.
  popts.failpoint_schedule = [](size_t shard, size_t) {
    return shard == 0 ? std::string("shard.unit.mine@1:kill")
                      : std::string();
  };

  ShardedExplorerOptions opts =
      ProcessOpts(MinerKind::kFpGrowth, 0.05, kShards, popts.scratch_dir,
                  &popts);
  opts.retry.max_retries = 1;
  opts.on_shard_failure = ShardFailurePolicy::kDrop;
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  EXPECT_LT(explorer.last_run_stats().rows_covered_fraction, 1.0);
  ExpectNoZombies();
}

TEST(ShardProcessSupervisionTest, FailPolicySurfacesTheShardStatus) {
  const Workload w = MakeWorkload();
  const std::string dir = TempDir("fail");
  worker::ProcessIsolationOptions popts;
  popts.scratch_dir = dir + "/scratch";
  popts.heartbeat_interval_ms = 25;
  popts.heartbeat_timeout_ms = 30000;
  popts.failpoint_schedule = [](size_t shard, size_t) {
    return shard == 0 ? std::string("shard.unit.mine@1:kill")
                      : std::string();
  };
  ShardedExplorerOptions opts =
      ProcessOpts(MinerKind::kFpGrowth, 0.05, 2, popts.scratch_dir, &popts);
  opts.retry.max_retries = 1;
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  EXPECT_FALSE(table.ok());
  // Even a failed run reaps everything it spawned.
  ExpectNoZombies();
}

TEST(ShardProcessSupervisionTest, ProcessIsolationRequiresAttemptRunner) {
  ShardedExplorerOptions opts;
  opts.isolation = ShardIsolation::kProcess;
  EXPECT_FALSE(ValidateShardedExplorerOptions(opts).ok());
  opts.attempt_runner = [](const ShardAttemptContext&) {
    return ShardAttemptResult{};
  };
  EXPECT_TRUE(ValidateShardedExplorerOptions(opts).ok());
}

}  // namespace
}  // namespace shard
}  // namespace divexp

// The coordinator re-execs this binary as `<self> shard-worker
// --spec=... --status-fd=3`; the verb must win before gtest sees argv
// (a worker child must never run the test suite recursively).
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "shard-worker") {
    return divexp::shard::worker::ShardWorkerMain(
        std::vector<std::string>(argv + 2, argv + argc));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
