// Sharded-exploration differential harness: run the ShardedExplorer
// under random deterministic fault schedules — mining-seam faults,
// shard-unit faults, snapshot-writer faults, fingerprint corruption —
// with a retry budget large enough to absorb them, and assert the
// final pattern table is bit-identical to an unfaulted monolithic run.
// All three miners, two supports, 1/4/8 shards.
//
// Schedule count per (miner, support, shards) cell comes from the
// DIVEXP_SHARD_SCHEDULES env var (default 5; CI's shard-fault-smoke
// job pins its own value).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "recovery/atomic_file.h"
#include "shard/shard.h"
#include "testing/table_bytes.h"
#include "testing/test_data.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace divexp {
namespace shard {
namespace {

using divexp::testing::MakeEncoded;
using divexp::testing::TableBytes;

std::string TempDir(const std::string& leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = std::string(base != nullptr ? base : "/tmp") +
                    "/divexp_shard_fault_test/" + leaf;
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir));
  return dir;
}

int SchedulesPerCell() {
  const char* env = std::getenv("DIVEXP_SHARD_SCHEDULES");
  if (env == nullptr) return 5;
  const int n = std::atoi(env);
  return n > 0 ? n : 5;
}

struct Workload {
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

// Rich enough that every miner produces many units and several
// checkpoints land before a mid-run fault, per shard.
Workload MakeWorkload() {
  Rng rng(31337);
  const std::vector<int> domains = {3, 4, 2, 3, 2};
  std::vector<std::vector<int>> cells(200,
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

// One random schedule of 1-2 faults. Throwing from the fingerprint
// check would escape the retry loop (it is a manual Hit, not a macro
// behind a Status seam), so that target only ever uses return-error;
// everything else alternates between the two in-process death modes.
std::string RandomSchedule(Rng& rng, MinerKind miner) {
  const std::vector<std::string> targets = {
      "shard.unit.mine", "shard.unit.fingerprint", "io.snapshot.write",
      MinerSeam(miner)};
  std::string schedule;
  const size_t entries = 1 + rng.Below(2);
  for (size_t e = 0; e < entries; ++e) {
    const std::string& name = targets[rng.Below(targets.size())];
    // Low-biased ordinals: level-style miners only hit their seam a
    // handful of times per attempt.
    const uint64_t ordinal =
        rng.Below(2) == 0 ? 1 + rng.Below(3) : 1 + rng.Below(12);
    const bool can_throw = name != "shard.unit.fingerprint";
    const char* action =
        can_throw && rng.Below(2) == 0 ? "throw" : "return-error";
    if (!schedule.empty()) schedule += ",";
    schedule += name + "@" + std::to_string(ordinal) + ":" + action;
  }
  return schedule;
}

std::string MonolithicReference(
    const Workload& w, MinerKind miner, double support,
    fpm::KernelKind kernel = fpm::KernelKind::kAuto) {
  ExplorerOptions opts;
  opts.miner = miner;
  opts.min_support = support;
  opts.kernel = kernel;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

void RunCell(const Workload& w, MinerKind miner, double support,
             size_t shards, const std::string& reference, int schedules,
             uint64_t seed,
             fpm::KernelKind kernel = fpm::KernelKind::kAuto) {
  Rng rng(seed);
  const std::string dir =
      TempDir(std::string(MinerKindName(miner)) + "_s" +
              std::to_string(static_cast<int>(support * 1000)) + "_k" +
              std::to_string(shards) + "_" + fpm::KernelKindName(kernel));
  int recovered = 0;
  for (int round = 0; round < schedules; ++round) {
    for (size_t i = 0; i < shards; ++i) {
      std::remove((dir + "/shard_" + std::to_string(i) + "/mining.ckpt")
                      .c_str());
    }
    const std::string schedule = RandomSchedule(rng, miner);
    SCOPED_TRACE("schedule " + schedule + " shards=" +
                 std::to_string(shards));

    ShardedExplorerOptions opts;
    opts.base.miner = miner;
    opts.base.min_support = support;
    opts.base.kernel = kernel;
    opts.base.checkpoint_dir = dir;
    opts.num_shards = shards;
    opts.shard_parallelism = shards > 1 ? 2 : 1;
    // Big enough budget that no 2-entry schedule can exhaust a shard.
    opts.retry.max_retries = 4;
    opts.sleep_ms = [](uint64_t) {};

    ScopedFailPoints scope;
    ASSERT_TRUE(scope.Arm(schedule).ok());
    ShardedExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_EQ(TableBytes(*table), reference);
    if (explorer.last_run_stats().retries_total > 0) ++recovered;
  }
  // The schedule space is tuned so a healthy fraction of rounds
  // actually exercises the retry path (not just unfired ordinals).
  EXPECT_GT(recovered, 0) << "no schedule triggered a shard retry";
}

class ShardFaultTest : public ::testing::TestWithParam<MinerKind> {};

TEST_P(ShardFaultTest, RandomFaultSchedulesStayBitIdentical) {
  const MinerKind miner = GetParam();
  const Workload w = MakeWorkload();
  const int schedules = SchedulesPerCell();
  uint64_t seed = 9000 + static_cast<uint64_t>(miner);
  for (const double support : {0.05, 0.01}) {
    const std::string reference =
        MonolithicReference(w, miner, support);
    for (const size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
      RunCell(w, miner, support, shards, reference, schedules, ++seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiners, ShardFaultTest,
                         ::testing::Values(MinerKind::kFpGrowth,
                                           MinerKind::kApriori,
                                           MinerKind::kEclat),
                         [](const auto& info) {
                           return std::string(MinerKindName(info.param));
                         });

// The kernel cells: faulted+retried shard runs with one kernel
// (including the SON merge's bitmap recount and its SupportUpperBound
// skip, which use the run's kernel) must land on the monolithic bytes
// of the other — kernel choice can never change a shard merge. Where
// no SIMD table exists kSimd degrades to scalar and the cells still
// run.
void RunKernelCells(fpm::KernelKind shard_kernel,
                    fpm::KernelKind reference_kernel, uint64_t seed) {
  const Workload w = MakeWorkload();
  const int schedules = SchedulesPerCell();
  for (MinerKind miner :
       {MinerKind::kFpGrowth, MinerKind::kApriori, MinerKind::kEclat}) {
    const std::string reference =
        MonolithicReference(w, miner, 0.05, reference_kernel);
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      RunCell(w, miner, 0.05, shards, reference, schedules, ++seed,
              shard_kernel);
    }
  }
}

TEST(ShardFaultKernelTest, SimdShardCellsMatchScalarMonolithicReference) {
  RunKernelCells(fpm::KernelKind::kSimd, fpm::KernelKind::kScalar, 77000);
}

TEST(ShardFaultKernelTest, ScalarShardCellsMatchSimdMonolithicReference) {
  RunKernelCells(fpm::KernelKind::kScalar, fpm::KernelKind::kSimd, 78000);
}

// Drop-mode differential: exhaust one shard under faults, then check
// the degraded table equals a monolithic run over the surviving rows.
TEST(ShardFaultDropTest, DroppedShardMatchesMonolithicOverSurvivors) {
  Rng rng(555);
  const std::vector<int> domains = {3, 3, 2};
  std::vector<std::vector<int>> cells(120,
                                      std::vector<int>(domains.size()));
  std::vector<Outcome> outcomes(cells.size());
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t a = 0; a < domains.size(); ++a) {
      cells[r][a] = static_cast<int>(rng.Below(domains[a]));
    }
    outcomes[r] = rng.Below(2) == 0 ? Outcome::kTrue : Outcome::kFalse;
  }
  const size_t kShards = 4;
  const std::vector<ShardRange> plan =
      MakeShardPlan(cells.size(), kShards);

  Workload full;
  full.dataset = MakeEncoded(cells, domains);
  full.outcomes = outcomes;
  Workload survivors;
  survivors.dataset = MakeEncoded(
      std::vector<std::vector<int>>(cells.begin() + plan[0].end,
                                    cells.end()),
      domains);
  survivors.outcomes.assign(outcomes.begin() + plan[0].end,
                            outcomes.end());
  const std::string reference =
      MonolithicReference(survivors, MinerKind::kFpGrowth, 0.05);

  ShardedExplorerOptions opts;
  opts.base.min_support = 0.05;
  opts.num_shards = kShards;
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 1;
  opts.on_shard_failure = ShardFailurePolicy::kDrop;
  opts.sleep_ms = [](uint64_t) {};
  ScopedFailPoints scope;
  ASSERT_TRUE(scope
                  .Arm("shard.unit.mine@1:return-error,"
                       "shard.unit.mine@2:throw")
                  .ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(full.dataset, full.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  EXPECT_LT(explorer.last_run_stats().rows_covered_fraction, 1.0);
}

}  // namespace
}  // namespace shard
}  // namespace divexp
