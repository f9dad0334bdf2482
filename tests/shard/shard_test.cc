// ShardedExplorer tests: monolithic equivalence across shard counts,
// option validation, retry accounting, and the three degradation
// policies (fail / drop / stale) under injected shard faults.
#include "shard/shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "recovery/atomic_file.h"
#include "testing/table_bytes.h"
#include "testing/test_data.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace divexp {
namespace shard {
namespace {

using divexp::testing::MakeEncoded;
using divexp::testing::ScratchDir;
using divexp::testing::TableBytes;

void RemoveShardCheckpoints(const std::string& dir, size_t shards) {
  for (size_t i = 0; i < shards; ++i) {
    std::remove(
        (dir + "/shard_" + std::to_string(i) + "/mining.ckpt").c_str());
  }
}

struct Workload {
  std::vector<std::vector<int>> rows;
  std::vector<int> domains;
  EncodedDataset dataset;
  std::vector<Outcome> outcomes;
};

Workload MakeWorkload(size_t num_rows = 150) {
  Rng rng(4242);
  Workload w;
  w.domains = {3, 3, 2, 2};
  w.rows.assign(num_rows, std::vector<int>(w.domains.size()));
  w.outcomes.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t a = 0; a < w.domains.size(); ++a) {
      w.rows[r][a] = static_cast<int>(rng.Below(w.domains[a]));
    }
    const double u = rng.Uniform();
    const double bias = w.rows[r][0] == 0 ? 0.55 : 0.25;
    w.outcomes[r] = u < bias         ? Outcome::kTrue
                    : u < bias + 0.3 ? Outcome::kFalse
                                     : Outcome::kBottom;
  }
  w.dataset = MakeEncoded(w.rows, w.domains);
  return w;
}

ShardedExplorerOptions BaseOptions(size_t shards, double support = 0.05) {
  ShardedExplorerOptions opts;
  opts.base.min_support = support;
  opts.num_shards = shards;
  opts.sleep_ms = [](uint64_t) {};  // never sleep in tests
  return opts;
}

std::string MonolithicReference(const Workload& w, double support = 0.05) {
  ExplorerOptions opts;
  opts.min_support = support;
  DivergenceExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  DIVEXP_CHECK(table.ok());
  return TableBytes(*table);
}

TEST(ShardFailurePolicyTest, NamesRoundTrip) {
  for (ShardFailurePolicy policy :
       {ShardFailurePolicy::kFail, ShardFailurePolicy::kDrop,
        ShardFailurePolicy::kStale}) {
    auto parsed = ParseShardFailurePolicy(ShardFailurePolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseShardFailurePolicy("retry").ok());
  EXPECT_FALSE(ParseShardFailurePolicy("").ok());
}

TEST(ShardedOptionsTest, ValidationRejectsBadConfigs) {
  ShardedExplorerOptions opts = BaseOptions(4);
  EXPECT_TRUE(ValidateShardedExplorerOptions(opts).ok());
  opts.num_shards = 0;
  EXPECT_FALSE(ValidateShardedExplorerOptions(opts).ok());
  opts = BaseOptions(4);
  opts.shard_parallelism = 0;
  EXPECT_FALSE(ValidateShardedExplorerOptions(opts).ok());
  opts = BaseOptions(4);
  opts.retry.jitter = 2.0;
  EXPECT_FALSE(ValidateShardedExplorerOptions(opts).ok());
  opts = BaseOptions(4);
  opts.base.min_support = 0.0;
  EXPECT_FALSE(ValidateShardedExplorerOptions(opts).ok());
}

TEST(ShardedExplorerTest, RejectsMismatchedOutcomes) {
  const Workload w = MakeWorkload(20);
  ShardedExplorer explorer(BaseOptions(2));
  auto result = explorer.ExploreOutcomes(
      w.dataset, std::vector<Outcome>(5, Outcome::kTrue));
  EXPECT_FALSE(result.ok());
}

TEST(ShardedExplorerTest, BitIdenticalToMonolithicAcrossShardCounts) {
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    for (size_t parallelism : {size_t{1}, size_t{4}}) {
      ShardedExplorerOptions opts = BaseOptions(shards);
      opts.shard_parallelism = parallelism;
      ShardedExplorer explorer(opts);
      auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(TableBytes(*table), reference)
          << "shards=" << shards << " parallelism=" << parallelism;
      const ExplorerRunStats& stats = explorer.last_run_stats();
      EXPECT_EQ(stats.shards, shards);
      EXPECT_EQ(stats.shards_failed, 0u);
      EXPECT_EQ(stats.retries_total, 0u);
      EXPECT_DOUBLE_EQ(stats.rows_covered_fraction, 1.0);
    }
  }
}

TEST(ShardedExplorerTest, ExplorePredictionsPathMatchesMonolithic) {
  const Workload w = MakeWorkload(80);
  Rng rng(99);
  std::vector<int> preds(w.dataset.num_rows), truths(w.dataset.num_rows);
  for (size_t r = 0; r < preds.size(); ++r) {
    preds[r] = static_cast<int>(rng.Below(2));
    truths[r] = static_cast<int>(rng.Below(2));
  }
  ExplorerOptions mono;
  mono.min_support = 0.05;
  DivergenceExplorer monolithic(mono);
  auto expected = monolithic.Explore(w.dataset, preds, truths,
                                     Metric::kFalsePositiveRate);
  ASSERT_TRUE(expected.ok());

  ShardedExplorer sharded(BaseOptions(4));
  auto actual = sharded.Explore(w.dataset, preds, truths,
                                Metric::kFalsePositiveRate);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(TableBytes(*actual), TableBytes(*expected));
}

TEST(ShardedExplorerTest, MoreShardsThanRowsStillExact) {
  const Workload w = MakeWorkload(5);
  const std::string reference = MonolithicReference(w, 0.2);
  ShardedExplorer explorer(BaseOptions(8, 0.2));
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
}

TEST(ShardedExplorerTest, TransientFaultIsRetriedToTheExactResult) {
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w);
  ShardedExplorerOptions opts = BaseOptions(4);
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 3;
  std::vector<uint64_t> backoffs;
  opts.sleep_ms = [&](uint64_t ms) { backoffs.push_back(ms); };

  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.unit.mine@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  const ExplorerRunStats& stats = explorer.last_run_stats();
  EXPECT_EQ(stats.retries_total, 1u);
  EXPECT_EQ(stats.shards_failed, 0u);
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(backoffs.size(), 1u);  // the backoff went through the hook
}

// Exhausts shard 0's whole retry budget (attempts hit ordinals 1..3 of
// shard.unit.mine with parallelism 1).
constexpr char kExhaustShard0[] =
    "shard.unit.mine@1:return-error,shard.unit.mine@2:return-error,"
    "shard.unit.mine@3:return-error";

TEST(ShardedExplorerTest, FailPolicySurfacesTheShardError) {
  const Workload w = MakeWorkload();
  ShardedExplorerOptions opts = BaseOptions(4);
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 2;
  opts.on_shard_failure = ShardFailurePolicy::kFail;

  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm(kExhaustShard0).ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().ToString().find("shard 0 of 4"),
            std::string::npos)
      << table.status().ToString();
  EXPECT_NE(table.status().ToString().find("after 3 attempts"),
            std::string::npos);
  EXPECT_EQ(explorer.last_run_stats().shards_failed, 1u);
  EXPECT_EQ(explorer.last_run_stats().retries_total, 2u);
}

// Shard 0 exhausts its retry budget on errors alone, and on an error
// then a throw (both in-process death modes); either way the degraded
// table equals a monolithic run over the surviving rows.
TEST(ShardedExplorerTest, DropPolicyMatchesMonolithicOverSurvivingRows) {
  const Workload w = MakeWorkload();
  const size_t kShards = 4;
  const std::vector<ShardRange> plan =
      MakeShardPlan(w.dataset.num_rows, kShards);

  // Monolithic reference over the rows that survive dropping shard 0.
  Workload surviving;
  surviving.domains = w.domains;
  surviving.rows.assign(w.rows.begin() + plan[0].end, w.rows.end());
  surviving.outcomes.assign(w.outcomes.begin() + plan[0].end,
                            w.outcomes.end());
  surviving.dataset = MakeEncoded(surviving.rows, surviving.domains);
  const std::string reference = MonolithicReference(surviving);

  for (const auto& [schedule, retries] :
       {std::pair<std::string, size_t>{kExhaustShard0, 2},
        {"shard.unit.mine@1:return-error,shard.unit.mine@2:throw", 1}}) {
    SCOPED_TRACE(schedule);
    ShardedExplorerOptions opts = BaseOptions(kShards);
    opts.shard_parallelism = 1;
    opts.retry.max_retries = retries;
    opts.on_shard_failure = ShardFailurePolicy::kDrop;

    ScopedFailPoints scope;
    ASSERT_TRUE(scope.Arm(schedule).ok());
    ShardedExplorer explorer(opts);
    auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(TableBytes(*table), reference);

    const ExplorerRunStats& stats = explorer.last_run_stats();
    EXPECT_EQ(stats.shards_failed, 1u);
    EXPECT_EQ(stats.shards_dropped, 1u);
    EXPECT_EQ(stats.retries_total, retries);
    EXPECT_LT(stats.rows_covered_fraction, 1.0);
    const double expected_fraction =
        static_cast<double>(w.dataset.num_rows - plan[0].size()) /
        static_cast<double>(w.dataset.num_rows);
    EXPECT_DOUBLE_EQ(stats.rows_covered_fraction, expected_fraction);
  }
}

// Under thread isolation an attempt runner is ignored: the shards mine
// in this process and report "thread".
TEST(ShardedExplorerTest, ThreadIsolationIgnoresTheAttemptRunner) {
  const Workload w = MakeWorkload();
  ShardedExplorerOptions opts = BaseOptions(2);
  size_t runner_calls = 0;
  opts.attempt_runner = [&runner_calls](const ShardAttemptContext&) {
    ++runner_calls;
    ShardAttemptResult result;
    result.status = Status::Internal("runner called under kThread");
    return result;
  };
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), MonolithicReference(w));
  EXPECT_EQ(runner_calls, 0u);
  EXPECT_EQ(explorer.last_run_stats().shard_isolation, "thread");
}

TEST(ShardedExplorerTest, AllShardsDroppedFailsInsteadOfEmptyTable) {
  const Workload w = MakeWorkload(20);
  ShardedExplorerOptions opts = BaseOptions(1);
  opts.retry.max_retries = 0;
  opts.on_shard_failure = ShardFailurePolicy::kDrop;
  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.unit.mine@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  EXPECT_FALSE(table.ok());
}

TEST(ShardedExplorerTest, StalePolicyWithFullCheckpointIsBitIdentical) {
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w);
  const std::string dir = ScratchDir("shard/stale_full");
  const size_t kShards = 4;
  RemoveShardCheckpoints(dir, kShards);

  // Seed complete per-shard checkpoints with a clean run.
  ShardedExplorerOptions opts = BaseOptions(kShards);
  opts.shard_parallelism = 1;
  opts.base.checkpoint_dir = dir;
  {
    ShardedExplorer seeder(opts);
    auto table = seeder.ExploreOutcomes(w.dataset, w.outcomes);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
  }

  // Now fail shard 0's only attempt; stale degradation must recover
  // its full candidate set from the snapshot and stay bit-identical.
  opts.retry.max_retries = 0;
  opts.on_shard_failure = ShardFailurePolicy::kStale;
  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.unit.mine@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);

  const ExplorerRunStats& stats = explorer.last_run_stats();
  EXPECT_EQ(stats.shards_failed, 1u);
  EXPECT_EQ(stats.shards_stale, 1u);
  EXPECT_DOUBLE_EQ(stats.rows_covered_fraction, 1.0);
}

TEST(ShardedExplorerTest, StalePolicyWithoutCheckpointIsExactSubset) {
  const Workload w = MakeWorkload();
  ExplorerOptions mono;
  mono.min_support = 0.05;
  DivergenceExplorer monolithic(mono);
  auto expected = monolithic.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(expected.ok());

  ShardedExplorerOptions opts = BaseOptions(4);  // no checkpoint dir
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 0;
  opts.on_shard_failure = ShardFailurePolicy::kStale;
  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.unit.mine@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  // Coverage stays full and every reported pattern carries the exact
  // global tallies; only patterns frequent solely inside the failed
  // shard may be missing.
  const ExplorerRunStats& stats = explorer.last_run_stats();
  EXPECT_DOUBLE_EQ(stats.rows_covered_fraction, 1.0);
  EXPECT_EQ(stats.shards_stale, 1u);
  EXPECT_LE(table->size(), expected->size());
  for (size_t i = 0; i < table->size(); ++i) {
    const PatternRow& row = table->row(i);
    const auto match = expected->Find(row.items);
    ASSERT_TRUE(match.has_value());
    const PatternRow& ref = expected->row(*match);
    EXPECT_EQ(row.counts.t, ref.counts.t);
    EXPECT_EQ(row.counts.f, ref.counts.f);
    EXPECT_EQ(row.counts.bot, ref.counts.bot);
  }
}

TEST(ShardedExplorerTest, CorruptCheckpointIsDiscardedAndRetried) {
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w);
  const std::string dir = ScratchDir("shard/corrupt_ckpt");
  const size_t kShards = 2;
  RemoveShardCheckpoints(dir, kShards);
  DIVEXP_CHECK_OK(recovery::EnsureDirectory(dir + "/shard_0"));
  DIVEXP_CHECK_OK(recovery::WriteFileAtomic(
      dir + "/shard_0/mining.ckpt", "this is not a snapshot"));

  ShardedExplorerOptions opts = BaseOptions(kShards);
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 2;
  opts.base.checkpoint_dir = dir;
  opts.base.resume = true;  // forces shard 0 to load the garbage
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  // The corrupt snapshot cost shard 0 one attempt; the retry deleted
  // it and remined from scratch.
  EXPECT_GE(explorer.last_run_stats().retries_total, 1u);
  EXPECT_EQ(explorer.last_run_stats().shards_failed, 0u);
}

TEST(ShardedExplorerTest, FingerprintCorruptionIsRetriedToExactness) {
  const Workload w = MakeWorkload();
  const std::string reference = MonolithicReference(w);
  ShardedExplorerOptions opts = BaseOptions(4);
  opts.shard_parallelism = 1;
  opts.retry.max_retries = 2;
  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.unit.fingerprint@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(TableBytes(*table), reference);
  EXPECT_GE(explorer.last_run_stats().retries_total, 1u);
}

TEST(ShardedExplorerTest, MergeVerifyFaultFailsTheRun) {
  const Workload w = MakeWorkload(30);
  ShardedExplorerOptions opts = BaseOptions(2);
  ScopedFailPoints scope;
  ASSERT_TRUE(scope.Arm("shard.merge.verify@1:return-error").ok());
  ShardedExplorer explorer(opts);
  auto table = explorer.ExploreOutcomes(w.dataset, w.outcomes);
  EXPECT_FALSE(table.ok());
}

}  // namespace
}  // namespace shard
}  // namespace divexp
