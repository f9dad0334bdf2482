// Process-isolation supervision: a worker whose heartbeat stalls is
// killed and retried, an exhausted shard degrades under the drop policy
// or fails the run under the fail policy, and process isolation refuses
// to run without an attempt runner. Every run must reap each child it
// spawned (the zombie invariant). The bit-identity of process-sharded
// runs, clean and under kill or SIGSEGV schedules, is checked by the
// differential matrix (tests/matrix/matrix_test.cc), whose binary this
// file is compiled into: the coordinator re-execs that binary as the
// shard worker.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "testing/modes.h"
#include "testing/table_bytes.h"
#include "util/subprocess.h"

namespace divexp {
namespace shard {
namespace {

using divexp::testing::InWorkerProcesses;
using divexp::testing::MinerTable;
using divexp::testing::ScratchDir;
using divexp::testing::TableBytes;
using divexp::testing::TestIsolation;

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

MinerTable Workload() {
  return divexp::testing::MakeMinerTable(
      divexp::testing::MinerTableSpecs()[0]);
}

std::string MonolithicReference(const MinerTable& w) {
  ExplorerOptions opts;
  opts.min_support = 0.05;
  auto table = DivergenceExplorer(opts).ExploreOutcomes(w.dataset,
                                                        w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

/// `shards` worker processes over FP-growth at support 0.05, with the
/// given per-(shard, attempt) failpoint schedule.
ShardedExplorerOptions ProcessOpts(
    size_t shards, worker::ProcessIsolationOptions popts,
    std::function<std::string(size_t, size_t)> schedule) {
  ShardedExplorerOptions opts;
  opts.base.min_support = 0.05;
  opts.num_shards = shards;
  opts.shard_parallelism = 2;
  opts.retry.max_retries = 3;
  opts.sleep_ms = [](uint64_t) {};
  popts.failpoint_schedule = std::move(schedule);
  return InWorkerProcesses(opts, popts);
}

TEST(ShardProcessSupervisionTest, StalledHeartbeatIsKilledAndRetried) {
  const MinerTable w = Workload();
  worker::ProcessIsolationOptions popts =
      TestIsolation(ScratchDir("supervision/stall"));
  popts.heartbeat_timeout_ms = 400;
  // Two stalls at once: the heartbeat thread sleeps far past the
  // deadline AND the mining thread sleeps too, so the worker is fully
  // silent — alive but wedged, exactly what heartbeat supervision
  // exists to catch. The coordinator must SIGKILL it at ~400ms rather
  // than wait out either sleep.
  const uint64_t timeouts_before = HeartbeatTimeouts();
  ShardedExplorer explorer(ProcessOpts(2, popts, [](size_t shard,
                                                    size_t attempt) {
    return shard == 0 && attempt == 0
               ? std::string("shard.worker.heartbeat@1:delay-10000,"
                             "shard.unit.mine@1:delay-10000")
               : std::string();
  }));
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), MonolithicReference(w));
  EXPECT_GT(explorer.last_run_stats().retries_total, 0u);
  EXPECT_GT(HeartbeatTimeouts(), timeouts_before);
  ExpectNoZombies();
}

// Shard 0 dies on every attempt: its retry budget exhausts.
std::string KillShard0(size_t shard, size_t) {
  return shard == 0 ? std::string("shard.unit.mine@1:kill") : std::string();
}

TEST(ShardProcessSupervisionTest, ExhaustedShardDegradesUnderDropPolicy) {
  const MinerTable w = Workload();
  const size_t kShards = 4;
  const std::vector<ShardRange> plan =
      MakeShardPlan(w.dataset.num_rows, kShards);
  // The drop policy excises shard 0's rows instead of failing the run.
  ShardedExplorerOptions opts = ProcessOpts(
      kShards, TestIsolation(ScratchDir("supervision/drop")), KillShard0);
  opts.retry.max_retries = 1;
  opts.on_shard_failure = ShardFailurePolicy::kDrop;
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table),
            MonolithicReference(divexp::testing::SliceRows(
                w, plan[0].end, w.dataset.num_rows)));
  EXPECT_LT(explorer.last_run_stats().rows_covered_fraction, 1.0);
  ExpectNoZombies();
}

TEST(ShardProcessSupervisionTest, FailPolicySurfacesTheShardStatus) {
  const MinerTable w = Workload();
  ShardedExplorerOptions opts = ProcessOpts(
      2, TestIsolation(ScratchDir("supervision/fail")), KillShard0);
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
